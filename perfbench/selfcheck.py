"""Self-check of the benchmark on a reduced command list.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py

Runs three short CLI calls (a check, an nk suite and a one-iteration search)
through the end-to-end mode and the traced mode, and asserts that each mode
reports exactly the metrics BENCHMARK.json declares for it, each with its
declared unit and a finite value, and that every call passed its check.
Takes about half a minute.
"""

from __future__ import annotations

import json
import math
import sys

import run
from workloads import FIXTURE, Command, Plan, Workload


def _prepare(root, work, seed, cli) -> Plan:
    perturbed = work / "perturbed.json"
    cli(("catalog", "emit", "s3s3_perturbed", "--seed", str(seed), "--out", str(perturbed), "--json"))
    fixture = str(root / FIXTURE)
    return Plan(
        commands=(
            Command(("check", fixture, "--json")),
            Command(("nk", fixture, "--json")),
            Command(("optimize", str(perturbed), "--max-iter", "1", "--json"), 1),
        ),
        repeat=1,
    )


REDUCED = Workload("selfcheck", "three short calls that reach every layer the metrics name", _prepare)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        detail, result = run.run_workload(REDUCED, seed=7, seconds=1.0, trace=trace)
        if not result["correct"]:
            errors.append(f"{key}: calls failed: {detail['problems']}")
        declared = {m["name"]: m["unit"] for m in spec[key]}
        reported = result["metrics"]
        for name in sorted(declared.keys() - reported.keys()):
            errors.append(f"{key}: metric {name} not reported")
        for name in sorted(reported.keys() - declared.keys()):
            errors.append(f"{key}: metric {name} reported but not declared")
        for name in sorted(declared.keys() & reported.keys()):
            value, unit = reported[name]["value"], reported[name]["unit"]
            if unit != declared[name]:
                errors.append(f"{key}: {name} has unit {unit}, declared {declared[name]}")
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                errors.append(f"{key}: {name} has value {value!r}")
    for line in errors:
        print(line, file=sys.stderr)
    print("selfcheck: ok" if not errors else f"selfcheck: {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
