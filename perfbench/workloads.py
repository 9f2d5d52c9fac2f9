"""Workloads of the nkvol benchmark: inputs, command lists and expected outcomes.

A workload turns a seed into manifests (written through the CLI's own
`catalog emit`, or derived from its output) and a fixed list of CLI calls.
Each call carries the exit code it must return and, where the exit code alone
is not enough, a check on its `--json` report.  One call per workload is named
as the repeat: it is run a second time and must print byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

FIXTURE = Path("tests") / "fixtures" / "s3s3_critical.json"

# Frozen values at the S^3 x S^3 nearly-Kaehler solution.
LAMBDA_NK = 2.0
PSI_NK = 3.0 ** -4.5
SOLUTION_TOL = 1e-9

# Past the plateau of the su(2)+R^3 search, which flattens at about
# iteration 15; every later iteration costs the same and makes no progress.
STALL_MAX_ITER = 18

VERIFY_COMMANDS = (
    ("check",),
    ("nijenhuis",),
    ("torsion",),
    ("nk",),
    ("cone",),
    ("alt12",),
    ("functional", "--gradient"),
)

# Exit codes recorded at the commit that introduced the benchmark; a command
# not listed for a manifest exits 0.
VERIFY_EXITS = {
    "fixture": {},
    "s3s3": {"nk": 1, "cone": 1},
    "torus6": {"nk": 1, "cone": 1, "functional": 2},
    "perturbed": {"torsion": 1, "nk": 1, "cone": 1},
}


@dataclass(frozen=True)
class Command:
    """One CLI call: the arguments after `python -m nkvol.cli`, and its outcome."""

    argv: tuple[str, ...]
    expect_exit: int = 0
    check: Callable[[dict], str | None] | None = None


@dataclass(frozen=True)
class Plan:
    commands: tuple[Command, ...]
    repeat: int  # index of the command whose output must repeat byte for byte


# prepare(root, work, seed, cli) writes the inputs into `work` and returns the
# plan; `cli(argv)` runs one checked CLI call in a fresh process.
Prepare = Callable[[Path, Path, int, Callable], Plan]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Prepare


def _emit(cli, out: Path, name: str, *extra: str) -> Path:
    cli(("catalog", "emit", name, *extra, "--out", str(out), "--json"))
    return out


def _check_solved(report: dict) -> str | None:
    verdicts, checks = report.get("verdicts", {}), report.get("checks", {})
    if verdicts.get("converged") is not True:
        return f"not converged: {checks.get('reason')}"
    if verdicts.get("nk_suite") is not True:
        return "nk_suite is false"
    lam, psi = checks.get("lambda"), checks.get("psi_final")
    if not (isinstance(lam, float) and abs(lam - LAMBDA_NK) <= SOLUTION_TOL):
        return f"lambda {lam} is not 2"
    if not (isinstance(psi, float) and abs(psi - PSI_NK) <= SOLUTION_TOL):
        return f"psi {psi} is not 3^(-9/2)"
    return None


def _check_stalled(report: dict) -> str | None:
    verdicts, checks = report.get("verdicts", {}), report.get("checks", {})
    if verdicts.get("converged") is not False:
        return "the su(2)+R^3 search converged"
    if checks.get("monotone") is not True:
        return "objective trace is not monotone"
    return None


def _prepare_solve(root: Path, work: Path, seed: int, cli) -> Plan:
    small = _emit(cli, work / "perturbed_small.json", "s3s3_perturbed",
                  "--seed", str(seed), "--magnitude", "0.05")
    kick = _emit(cli, work / "perturbed_kick.json", "s3s3_perturbed",
                 "--seed", str(seed), "--magnitude", "0.3")
    return Plan(
        commands=tuple(Command(("optimize", str(path), "--json"), 0, _check_solved)
                       for path in (small, kick)),
        repeat=0,
    )


def _prepare_stall(root: Path, work: Path, seed: int, cli) -> Plan:
    # su(2) + R^3: the S^3 x S^3 constants with every constant that touches
    # e^4, e^5 or e^6 removed, and the S^3 x S^3 starting J.
    data = json.loads(_emit(cli, work / "s3s3.json", "s3s3").read_text(encoding="utf-8"))
    data["name"] = "su2_r3"
    data["structure_constants"] = [c for c in data["structure_constants"]
                                   if max(c["i"], c["j"], c["k"]) <= 3]
    path = work / "su2_r3.json"
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    argv = ("optimize", str(path), "--max-iter", str(STALL_MAX_ITER), "--seed", str(seed), "--json")
    return Plan(commands=(Command(argv, 1, _check_stalled),), repeat=0)


def _prepare_verify(root: Path, work: Path, seed: int, cli) -> Plan:
    manifests = {
        "fixture": root / FIXTURE,
        "s3s3": _emit(cli, work / "s3s3.json", "s3s3"),
        "torus6": _emit(cli, work / "torus6.json", "torus6"),
        "perturbed": _emit(cli, work / "perturbed.json", "s3s3_perturbed", "--seed", str(seed)),
    }
    commands = tuple(
        Command((cmd[0], str(path), *cmd[1:], "--json"), VERIFY_EXITS[key].get(cmd[0], 0))
        for key, path in manifests.items()
        for cmd in VERIFY_COMMANDS
    )
    return Plan(commands=commands, repeat=VERIFY_COMMANDS.index(("nk",)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve",
            "optimize to a verified S3xS3 solution from a small and a large seeded kick: "
            "time to solution, dominated by Form.evaluate inside the residual",
            _prepare_solve,
        ),
        Workload(
            "stall",
            "optimize on su(2)+R^3 past its plateau until it fails honestly: fixed work per "
            "iteration, so step acceptance and stopping show here and not in solve",
            _prepare_stall,
        ),
        Workload(
            "verify",
            "seven checks on four manifests, one J reused per call: start-up and the nk, cone "
            "and alt12 layers dominate, and the optimizer is bypassed",
            _prepare_verify,
        ),
    )
}
