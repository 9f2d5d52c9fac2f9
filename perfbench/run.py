"""End-to-end benchmark of the nkvol command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {solve,stall,verify} [--seed 7]
                             [--seconds 24] [--trace 0|1]

The benchmark runs the CLI as users do, `python -m nkvol.cli ... --json` in a
fresh process per call with PYTHONPATH=src, one call at a time from this one
process (a closed loop with a single client).  OPENBLAS_NUM_THREADS=1 is set
only in the children's environment.  Every call is checked: its exit code,
the verdicts and values its workload requires (see workloads.py), and the
byte-identical output of a repeated call.

--trace 0 reports the end-to-end metrics: set-up (start-up plus imports),
per-call and per-list wall time, peak RSS of the children and the share of
calls that passed.  The list is cycled through for --seconds, and at least
once in full.  --trace 1 reports per-layer metrics instead: it
splits start-up with `python -X importtime` and runs each call of the list
untraced and traced in one child process (tracer.py); --seconds does not apply.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it describes the environment
and the samples.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Command, Workload

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
CALL_TIMEOUT_S = 150.0
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1"}
ENV_PROBE = (
    "import json, platform, numpy\n"
    "from importlib.metadata import version\n"
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,\n"
    "    'scipy': version('scipy'), 'blas': f\"{blas.get('name')} {blas.get('version')}\"}))\n"
)


@dataclass
class Call:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float


def spawn(args: list[str], env: dict, stdin: str = "") -> Call:
    """Run one child to completion; its peak RSS comes from wait4."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(args, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
    timer.start()
    err: list[str] = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    try:
        try:
            proc.stdin.write(stdin)
            proc.stdin.close()
            out = proc.stdout.read()
        finally:
            drain.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Call(proc.returncode, out, err[0] if err else "", wall, usage.ru_maxrss / 1024.0)


class Session:
    """Runs and checks CLI calls, counting attempts and failures."""

    def __init__(self):
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.env.update(CHILD_THREADS)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, cmd: Command, code: int, stdout: str, reference: str | None = None) -> None:
        """Count one call of `cmd` and check its outcome."""
        self.attempted += 1
        problem = None
        if code != cmd.expect_exit:
            problem = f"exit {code}, expected {cmd.expect_exit}"
        elif reference is not None and stdout != reference:
            problem = "output differs from the first run of the same command"
        else:
            try:
                report = json.loads(stdout)
            except json.JSONDecodeError:
                problem = "stdout is not one JSON report"
            else:
                if cmd.check is not None:
                    problem = cmd.check(report)
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{' '.join(cmd.argv)}: {problem}")

    def run(self, cmd: Command, reference: str | None = None, args: tuple[str, ...] = ()) -> Call:
        call = spawn([sys.executable, *args, "-m", "nkvol.cli", *cmd.argv], self.env)
        if call.code != cmd.expect_exit and call.stderr:
            self.problems.append(call.stderr.strip().splitlines()[-1])
        self.record(cmd, call.code, call.stdout, reference)
        return call

    def cli(self, argv) -> Call:
        return self.run(Command(tuple(argv)))


CATALOG_LIST = Command(("catalog", "list", "--json"), 0,
                       lambda r: None if "s3s3" in r.get("checks", {}).get("catalog", ())
                       else "catalog list lacks s3s3")


def end_to_end(session: Session, plan, seconds: float) -> tuple[dict, dict]:
    """Cycle through the command list for `seconds`, timing every call.

    The list is run once in full, with its repeat command a second time; after
    that a call starts only if its command's median so far still fits before
    the deadline.  Each command's calls give its median call time; `cmd_p50_s`
    is the median of these over the list, so that a command run more often
    weighs no more, and `run_s` their sum, the time of one pass over the list.
    """
    setup_s = statistics.median(session.run(CATALOG_LIST).wall_s for _ in range(SETUP_REPEATS))
    n = len(plan.commands)
    call_s: list[list[float]] = [[] for _ in range(n)]
    rss: list[float] = []
    reference = None
    schedule = itertools.chain(range(n), [plan.repeat],
                               itertools.islice(itertools.cycle(range(n)), plan.repeat + 1, None))
    deadline = time.perf_counter() + seconds
    for i, k in enumerate(schedule):
        if i > n and time.perf_counter() + statistics.median(call_s[k]) > deadline:
            break
        call = session.run(plan.commands[k], reference if k == plan.repeat else None)
        if k == plan.repeat and reference is None:
            reference = call.stdout
        call_s[k].append(call.wall_s)
        rss.append(call.rss_mb)
    per_cmd = [statistics.median(times) for times in call_s]
    metrics = {
        "setup_s": (setup_s, "s"),
        "cmd_p50_s": (statistics.median(per_cmd), "s"),
        "run_s": (sum(per_cmd), "s"),
        "peak_rss_mb": (max(rss), "MiB"),
        "pass_frac": (1.0 - session.failed / session.attempted, "ratio"),
    }
    samples = {"setup_calls": SETUP_REPEATS, "cmd_calls": sum(map(len, call_s)),
               "min_calls_per_cmd": min(len(times) for times in call_s),
               "failed_frac": session.failed / session.attempted}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, samples


def _importtime_split(stderr: str) -> dict[str, float]:
    """Seconds spent importing numpy, scipy and nkvol's own modules.

    `-X importtime` prints each module after the modules it imported, indented
    by nesting depth; reading it backwards gives each entry its ancestors.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, int(cumulative), name.strip()))

    def under(prefixes, name: str) -> bool:
        return any(name == p or name.startswith(p + ".") for p in prefixes)

    seconds = {"numpy": 0, "scipy": 0, "nkvol": 0}
    nested = 0  # numpy and scipy time inside nkvol's own imports
    stack: list[tuple[int, str]] = []
    for depth, cumulative, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        ancestors = [n for _, n in stack]
        for prefix in ("numpy", "scipy"):
            if under((prefix,), name) and not any(under(("numpy", "scipy"), a) for a in ancestors):
                seconds[prefix] += cumulative
                nested += cumulative if any(under(("nkvol",), a) for a in ancestors) else 0
        if under(("nkvol",), name) and not any(under(("nkvol",), a) for a in ancestors):
            seconds["nkvol"] += cumulative
        stack.append((depth, name))
    seconds["nkvol"] -= nested
    return {key: value / 1e6 for key, value in seconds.items()}


def traced(session: Session, plan, spans_path: Path) -> tuple[dict, dict]:
    splits = []
    for _ in range(IMPORTTIME_REPEATS):
        call = session.run(CATALOG_LIST, args=("-X", "importtime"))
        splits.append(_importtime_split(call.stderr))
    worker = spawn([sys.executable, str(HERE / "tracer.py"), str(spans_path)], session.env,
                   stdin=json.dumps([cmd.argv for cmd in plan.commands]))
    if worker.code != 0:
        raise RuntimeError(f"traced run failed (exit {worker.code}):\n{worker.stderr}")
    data = json.loads(worker.stdout.splitlines()[-1])
    for cmd, plain, with_spans in zip(plan.commands, data["untraced"], data["traced"]):
        session.record(cmd, plain["code"], plain["stdout"])
        session.record(cmd, with_spans["code"], with_spans["stdout"], plain["stdout"])
    metrics = data["metrics"]
    for key in ("numpy", "scipy", "nkvol"):
        metrics[f"cli.import_{key}_s"] = {"value": statistics.median(s[key] for s in splits),
                                          "unit": "s"}
    samples = {"importtime_calls": IMPORTTIME_REPEATS, "untraced_s": data["untraced_s"],
               "traced_s": data["traced_s"], "spans": data["spans"],
               "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, samples


def environment(session: Session, workload: Workload, seed: int) -> dict:
    probe = spawn([sys.executable, "-c", ENV_PROBE], session.env)
    env = json.loads(probe.stdout) if probe.code == 0 else {"probe_error": probe.stderr.strip()}
    env.update({
        "nproc": os.cpu_count(),
        "child_threads": CHILD_THREADS,
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
    })
    return env


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns the detail record and the result object."""
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        session = Session()
        env = environment(session, workload, seed)
        plan = workload.prepare(ROOT, work, seed, session.cli)
        if trace:
            spans = OUT / f"spans-{workload.name}-seed{seed}.csv.gz"
            metrics, samples = traced(session, plan, spans)
        else:
            metrics, samples = end_to_end(session, plan, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail = {"environment": env, "samples": samples, "problems": session.problems}
    result = {"correct": session.failed == 0, "attempted": session.attempted,
              "failed": session.failed, "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nkvol" / "cli.py").is_file():
        print(f"perfbench: no nkvol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    detail, result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
