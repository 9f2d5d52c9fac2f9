"""One structure per command: each `verify` command builds J's (1,0) frame and the
N* matrix at most once, runs the conformal solve at most once, and gates each omega
it reads once.

The layers that read N* take the `NijenhuisTensor` their caller built, and the
layers that read omega take the `HermitianForm` their caller gated.  The
builders are counted the way `perfbench/tracer.py` wraps functions: the wrapper
replaces the function in every nkvol namespace that bound it.  A gate of omega
is one `Metric` build, after one (1,1) test (`acs.is_type_11`, J-invariance) for
an omega from outside, the manifest's: the conformal solve's omega is (1,1) by
construction.  Each command runs in this process through `nkvol.cli.run`.
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
# omega gates per manifest over the seven commands: one per command that reads omega
# (20 in all); `cone` rescales its gated omega to unit lambda without a second gate.
# Only the fixture carries its own omega, so only its gates test (1,1).
# torus6 has no normalized omega, but a positive candidate, which every command that
# reads omega picks: `functional` gates it too, then stops at the degenerate tensor
GATES = {"fixture": 5, "s3s3": 5, "torus6": 5, "s3s3_perturbed": 5}


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
    count_calls(monkeypatch, acs.is_type_11, counts)
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
        assert counts["is_type_11"] <= counts["Metric"] <= 1, (cmd, dict(counts))
        gates.update(counts)
    assert gates["Metric"] == GATES[name], dict(gates)
    assert gates["is_type_11"] == (GATES[name] if name == "fixture" else 0), dict(gates)


def test_optimize_gates_its_omega_once(tmp_path, counts):
    path = tmp_path / "perturbed.json"
    catalog("s3s3_perturbed", seed=7).save(path)
    for extra in ((), ("--emit", str(tmp_path / "critical.json"))):
        counts.clear()
        assert run_quiet(["optimize", str(path), *extra]) == 0, extra
        assert counts["Metric"] == 1 and counts["is_type_11"] == 0, (extra, dict(counts))


def test_converged_search_builds_one_tensor_per_evaluated_structure(tmp_path, monkeypatch):
    # the analytic Jacobian builds no structure, and the suite reads the N* matrix of the
    # accepted point's own residual evaluation: every N* a converged `optimize` builds is one
    # single-structure residual evaluation (the start, then each trial in the working region)
    counts = Counter()
    count_calls(monkeypatch, nijenhuis.nijenhuis_matrices, counts, lambda _, Jm, *__: Jm.ndim == 2)
    count_calls(monkeypatch, acs.default_frame_coords, counts, lambda Jm: Jm.ndim > 2)
    path = tmp_path / "perturbed.json"
    catalog("s3s3_perturbed", seed=7).save(path)
    for manifest, built in ((FIXTURE, 1), (path, 7)):
        counts.clear()
        assert run_quiet(["optimize", str(manifest)]) == 0, manifest
        assert counts == {"nijenhuis_matrices": built}, (manifest, dict(counts))


def test_verdicts_build_no_lambda3_projector(tmp_path, monkeypatch):
    # the verdicts read d omega and a manifest Omega3 by their (3,0) coefficient in J's
    # frame (`acs.split_30`), as the search does, the gradient wedges d(delta-form) with
    # omega directly, the (1,1) gate of omega is J-invariance, and the orientation and the
    # volume come from the frame's i det Theta: no command below builds a projector of any
    # degree or wedges two 3-forms, on the fixture (which carries Omega3), s3s3, torus6 and
    # s3s3_perturbed, or in a converged search.  `alt12`, which projects onto (2,0), (0,2),
    # (2,1) and (1,2) itself, shows that the counter sees them
    counts = Counter()
    count_calls(monkeypatch, acs.projector_from_derivation, counts)
    count_calls(monkeypatch, multilinear.wedge_coeffs, counts,
                lambda a, b, n, ka, kb: (ka, kb) == (3, 3))
    paths = {"fixture": FIXTURE}
    for name in ("s3s3", "torus6", "s3s3_perturbed"):
        paths[name] = tmp_path / f"{name}.json"
        catalog(name, seed=7 if name == "s3s3_perturbed" else None).save(paths[name])
    calls = [(name, cmd, 0) for name in paths
             for cmd in (("nijenhuis",), ("torsion",), ("nk",), ("cone",),
                         ("functional", "--gradient"))]
    calls += [("s3s3_perturbed", ("optimize",), 0), ("s3s3", ("alt12",), 4)]  # a converged search
    for name, cmd, built in calls:
        counts.clear()
        code = run_quiet([cmd[0], str(paths[name]), *cmd[1:]])
        assert code == EXITS[name].get(cmd[0], 0), (name, cmd)
        assert counts["projector_from_derivation"] == built, (name, cmd, dict(counts))
        assert counts["wedge_coeffs"] == 0, (name, cmd, dict(counts))
