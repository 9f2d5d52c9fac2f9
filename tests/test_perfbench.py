"""The benchmark's self-check passes against the current source tree.

The benchmark hooks into module `__all__` lists and a few method names; a
rename then fails here rather than only in a benchmark run.
"""

import ast
import inspect
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tracer_lookups() -> list[str]:
    """The "layer.function" names that `Tracer.metrics` in perfbench/tracer.py looks up:
    its `get(...)` names and its name tuples, less the methods `Tracer.install` wraps
    under a literal name (the self-check covers those)."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    tracer = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Tracer")
    method = {f.name: f for f in tracer.body if isinstance(f, ast.FunctionDef)}
    names = set()
    for node in ast.walk(method["metrics"]):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "get":
            names |= {a.value for a in node.args if isinstance(a, ast.Constant)}
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            names |= {e.value for e in node.iter.elts if isinstance(e, ast.Constant)}
    wrapped = {node.args[0].value for node in ast.walk(method["install"])
               if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "wrap"
               and isinstance(node.args[0], ast.Constant)}
    return sorted(names - wrapped)


# metrics that name no layer function yet; each fails the check below until it is mended
STALE = {"hermitian_torsion.c_map": "ROADMAP item 1: c_map lives in tests/helpers.py, "
                                    "so hermitian_torsion.c_map.self_s reads 0"}


def test_perfbench_selfcheck():
    p = subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=ROOT,
                       capture_output=True, text=True)
    assert p.returncode == 0, p.stdout + p.stderr


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=STALE[name]))
    if name in STALE else name for name in _tracer_lookups()])
def test_tracer_metric_names_an_exported_layer_function(name):
    # the tracer wraps only these, so a renamed or moved function would read 0
    layer, fname = name.split(".")
    module = import_module(f"nkvol.{layer}")
    fn = getattr(module, fname, None)
    assert fname in module.__all__ and inspect.isfunction(fn) and fn.__module__ == module.__name__
