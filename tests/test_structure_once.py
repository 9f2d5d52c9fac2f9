"""One structure per command: each `verify` command builds J's (1,0) frame and the
N* matrix at most once, runs the conformal solve at most once, and gates each omega
it reads once.

The layers that read N* take the `NijenhuisTensor` their caller built, and the
layers that read omega take the `HermitianForm` their caller gated.  The
builders are counted the way `perfbench/tracer.py` wraps functions: the wrapper
replaces the function in every nkvol namespace that bound it.  A gate of omega
is one (1,1) test (`is_pure_bidegree` at bidegree (1,1)) and one `Metric`
build.  Each command runs in this process through `nkvol.cli.run`.
"""

import contextlib
import io
import sys
from collections import Counter

import pytest

import nkvol.g2_cone  # noqa: F401  (every layer the commands import, before wrapping)
import nkvol.variation_opt  # noqa: F401
from nkvol import acs, hermitian_torsion, multilinear, nijenhuis
from nkvol.cli import run
from nkvol.frame_manifold import catalog

from helpers import FIXTURE

# the seven commands of the benchmark's `verify` workload, and their exit codes
VERIFY_COMMANDS = (("check",), ("nijenhuis",), ("torsion",), ("nk",), ("cone",), ("alt12",),
                   ("functional", "--gradient"))
EXITS = {
    "fixture": {},
    "s3s3": {"nk": 1, "cone": 1},
    "torus6": {"nk": 1, "cone": 1, "functional": 2},
    "s3s3_perturbed": {"torsion": 1, "nk": 1, "cone": 1},
}
# omega gates per manifest over the seven commands: one per command that reads omega,
# and a second in `cone` on the fixture, for its unit-lambda rescaling (21 in all).
# torus6 has no normalized omega, but a positive candidate, which every command that
# reads omega picks: `functional` gates it too, then stops at the degenerate tensor
GATES = {"fixture": 6, "s3s3": 5, "torus6": 5, "s3s3_perturbed": 5}


def count_calls(monkeypatch, fn, counts: Counter, when=lambda *args: True) -> None:
    def counted(*args, **kwargs):
        if when(*args):
            counts[fn.__name__] += 1
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "nkvol" or name.startswith("nkvol."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)


@pytest.fixture
def counts(monkeypatch) -> Counter:
    counts = Counter()
    for fn in (acs.default_frame_coords, nijenhuis.nijenhuis_matrices,
               hermitian_torsion.conformal_solve):
        count_calls(monkeypatch, fn, counts)
    count_calls(monkeypatch, acs.is_pure_bidegree, counts, lambda J, a, p, q: (p, q) == (1, 1))
    post_init = multilinear.Metric.__post_init__

    def counted_post_init(self):
        counts["Metric"] += 1
        post_init(self)

    monkeypatch.setattr(multilinear.Metric, "__post_init__", counted_post_init)
    return counts


def run_quiet(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return run([*argv, "--json"])


@pytest.mark.parametrize("name", sorted(EXITS))
def test_each_verify_command_builds_one_frame_and_one_tensor(tmp_path, counts, name):
    path = FIXTURE
    if name != "fixture":
        path = tmp_path / f"{name}.json"
        catalog(name, seed=7 if name == "s3s3_perturbed" else None).save(path)
    gates = Counter()
    for cmd in VERIFY_COMMANDS:
        counts.clear()
        code = run_quiet([cmd[0], str(path), *cmd[1:]])
        assert code == EXITS[name].get(cmd[0], 0), cmd
        assert counts["default_frame_coords"] <= 1, (cmd, dict(counts))
        assert counts["nijenhuis_matrices"] <= 1, (cmd, dict(counts))
        assert counts["conformal_solve"] <= 1, (cmd, dict(counts))
        limit = 2 if (name, cmd[0]) == ("fixture", "cone") else 1
        assert counts["is_pure_bidegree"] == counts["Metric"] <= limit, (cmd, dict(counts))
        gates.update(counts)
    assert gates["is_pure_bidegree"] == gates["Metric"] == GATES[name], dict(gates)


def test_optimize_gates_its_omega_once(tmp_path, counts):
    path = tmp_path / "perturbed.json"
    catalog("s3s3_perturbed", seed=7).save(path)
    for extra in ((), ("--emit", str(tmp_path / "critical.json"))):
        counts.clear()
        assert run_quiet(["optimize", str(path), *extra]) == 0, extra
        assert counts["is_pure_bidegree"] == counts["Metric"] == 1, (extra, dict(counts))
