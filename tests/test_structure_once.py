"""One structure per command: each `verify` command builds J's (1,0) frame and the
N* matrix at most once.

The layers that read N* take the `NijenhuisTensor` their caller built.  The two
builders are counted the way `perfbench/tracer.py` wraps functions: the wrapper
replaces the function in every nkvol namespace that bound it.  Each command runs
in this process through `nkvol.cli.run`.
"""

import contextlib
import io
import sys
from collections import Counter

import pytest

import nkvol.g2_cone  # noqa: F401  (every layer the commands import, before wrapping)
import nkvol.variation_opt  # noqa: F401
from nkvol import acs, nijenhuis
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


def count_calls(monkeypatch, fn, counts: Counter) -> None:
    def counted(*args, **kwargs):
        counts[fn.__name__] += 1
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "nkvol" or name.startswith("nkvol."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)


@pytest.mark.parametrize("name", sorted(EXITS))
def test_each_verify_command_builds_one_frame_and_one_tensor(tmp_path, monkeypatch, name):
    path = FIXTURE
    if name != "fixture":
        path = tmp_path / f"{name}.json"
        catalog(name, seed=7 if name == "s3s3_perturbed" else None).save(path)
    counts = Counter()
    for fn in (acs.default_frame_coords, nijenhuis.nijenhuis_matrices):
        count_calls(monkeypatch, fn, counts)
    for cmd in VERIFY_COMMANDS:
        counts.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            code = run([cmd[0], str(path), *cmd[1:], "--json"])
        assert code == EXITS[name].get(cmd[0], 0), cmd
        assert counts["default_frame_coords"] <= 1, (cmd, dict(counts))
        assert counts["nijenhuis_matrices"] <= 1, (cmd, dict(counts))
