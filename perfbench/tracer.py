"""In-process traced run of a list of nkvol CLI calls.

Usage: python3 perfbench/tracer.py SPANS_OUT < argv-lists.json

Reads a JSON list of argument lists on standard input and runs each through
`nkvol.cli.run(argv)` twice in this process, back to back: untraced, then with
a timing wrapper around the public functions of every nkvol module.  Nothing
under `src/` changes: each wrapper replaces the function in every nkvol module
namespace that bound it (by definition or by `from .x import y`), and
`Form.evaluate` and the per-J cache methods of `AlmostComplexStructure` are
wrapped on their classes.  Spans (name, start, end, parent) are kept in memory,
written to SPANS_OUT as gzipped CSV at the end, and reduced to per-layer
metrics.  The last line of standard output is one JSON object with both runs'
exit codes and outputs, their wall times, and the metrics.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import importlib
import inspect
import io
import json
import sys
import time
import weakref
from array import array

LAYERS = ("multilinear", "frame_manifold", "acs", "nijenhuis", "hermitian_torsion",
          "nk_su3", "g2_cone", "variation_opt", "cli")
ACS_CACHED = ("frame", "bidegree_projector", "derivation_matrix")

# An iteration makes progress when it lowers the objective by more than this
# relative amount.
PROGRESS_REL = 0.01


class Tracer:
    """Spans in flat arrays; the open-span stack gives each span its parent."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.acs_calls = 0
        self._acs_seen: dict[int, weakref.ref] = {}
        self.acs_instances = 0
        self.gn_iters = 0
        self.progress_iters = 0

    def wrap(self, name: str, fn, observe=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return functools.wraps(fn)(traced)

    def _observe_acs(self, args, _result) -> None:
        J = args[0]
        self.acs_calls += 1
        ref = self._acs_seen.get(id(J))
        if ref is None or ref() is not J:
            self._acs_seen[id(J)] = weakref.ref(J)
            self.acs_instances += 1

    def _observe_search(self, _args, result) -> None:
        trace = result.trace
        self.gn_iters += result.iterations
        self.progress_iters += sum(1 for a, b in zip(trace, trace[1:]) if b < (1.0 - PROGRESS_REL) * a)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [importlib.import_module(f"nkvol.{layer}") for layer in LAYERS]
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "nkvol" or name.startswith("nkvol.")]
        for layer, mod in zip(LAYERS, modules):
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                observe = self._observe_search if (layer, fname) == ("variation_opt", "find_critical") else None
                wrapper = self.wrap(f"{layer}.{fname}", fn, observe)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._set(ns, attr, wrapper)
        form = sys.modules["nkvol.multilinear"].Form
        self._set(form, "evaluate", self.wrap("multilinear.evaluate", form.evaluate))
        acs = sys.modules["nkvol.acs"].AlmostComplexStructure
        for meth in ACS_CACHED:
            self._set(acs, meth, self.wrap(f"acs.{meth}", getattr(acs, meth), self._observe_acs))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def write_spans(self, path: str) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "name", "parent", "start_us", "end_us"))
            for i in range(len(self.start)):
                out.writerow((i, self.names[self.name_of[i]], self.parent[i],
                              f"{(self.start[i] - t0) * 1e6:.1f}", f"{(self.end[i] - t0) * 1e6:.1f}"))

    def metrics(self) -> dict:
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_of[i]
            calls[k] += 1
            incl[k] += dur[i]
            self_s[k] += dur[i] - child[i]

        out: dict[str, tuple[float, str]] = {}

        def get(name):
            k = self._ids.get(name)
            return (0, 0.0, 0.0) if k is None else (calls[k], incl[k], self_s[k])

        for layer in LAYERS[:-1]:  # cli's one traced function is reported as cli.run
            out[f"{layer}.self_s"] = (sum(s for name, s in zip(self.names, self_s)
                                          if name.split(".")[0] == layer), "s")
        for name in ("multilinear.evaluate", "multilinear.wedge", "multilinear.contract",
                     "frame_manifold.d_invariant", "nijenhuis.nijenhuis_via_brackets",
                     "hermitian_torsion.conformal_solve"):
            c, _, s = get(name)
            out[f"{name}.calls"] = (c, "count")
            out[f"{name}.self_s"] = (s, "s")
        for name in ("hermitian_torsion.c_map", "hermitian_torsion.hermitian_metric",
                     "hermitian_torsion.torsion_criterion", "hermitian_torsion.alt12_analysis",
                     "nk_su3.nk_equivalence_suite", "nk_su3.solve_Omega",
                     "g2_cone.metric_roundtrip", "g2_cone.fernandez_gray_check",
                     "variation_opt.deform_J", "cli.run"):
            out[f"{name}.self_s"] = (get(name)[2], "s")
        out["acs.cache_reuse"] = (self.acs_calls / max(self.acs_instances, 1), "ratio")
        evals, eval_incl, _ = get("variation_opt.criticality_residual_vector")
        out["variation_opt.residual_evals"] = (evals, "count")
        out["variation_opt.residual_eval_s"] = (eval_incl / max(evals, 1), "s")
        out["variation_opt.gn_iters"] = (self.gn_iters, "count")
        out["variation_opt.iter_s"] = (get("variation_opt.find_critical")[1] / max(self.gn_iters, 1), "s")
        out["variation_opt.progress_ratio"] = (self.progress_iters / max(self.gn_iters, 1), "ratio")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def run_one(argv) -> tuple[dict, float]:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = sys.modules["nkvol.cli"].run(list(argv))
    return {"code": code, "stdout": buf.getvalue()}, time.perf_counter() - t0


def main() -> int:
    spans_out = sys.argv[1]
    argv_lists = json.load(sys.stdin)
    importlib.import_module("nkvol.cli")
    tracer = Tracer()
    untraced, traced = [], []
    untraced_s = traced_s = 0.0
    # Each call runs untraced and then traced, back to back, so that a change
    # in machine speed during the run affects both sides of the overhead alike.
    for argv in argv_lists:
        result, seconds = run_one(argv)
        untraced.append(result)
        untraced_s += seconds
        tracer.install()
        try:
            result, seconds = run_one(argv)
        finally:
            tracer.uninstall()
        traced.append(result)
        traced_s += seconds
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = {"value": traced_s / untraced_s, "unit": "ratio"}
    tracer.write_spans(spans_out)
    print(json.dumps({"untraced": untraced, "traced": traced, "untraced_s": untraced_s,
                      "traced_s": traced_s, "spans": len(tracer.start), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
