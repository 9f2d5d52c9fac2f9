"""Values are immutable: no report can be reassigned, and J carries no hidden state."""

import ast
import inspect
import pkgutil
from importlib import import_module
from pathlib import Path

import pytest

import nkvol
from nkvol.frame_manifold import JacobiReport, Manifest, catalog
from nkvol.acs import AlmostComplexStructure
from nkvol.g2_cone import ConeForm, FernandezGrayReport, MetricRoundtripReport, Stable3FormReport
from nkvol.hermitian_torsion import (Alt12Report, ConformalStack, HermitianForm,
                                     TorsionCriterionReport)
from nkvol.nijenhuis import NijenhuisTensor, VolumeDensity
from nkvol.nk_su3 import (NablaOmegaReport, NkSuiteReport, SolveOmegaResult,
                          StructureEquationReport, SU3Structure)
from nkvol.variation_opt import CriticalityReport, FindCriticalResult, IterationRecord

from helpers import product_omega

ROOT = Path(__file__).resolve().parent.parent

REPORTS = (
    JacobiReport, Manifest,
    ConeForm, Stable3FormReport, FernandezGrayReport, MetricRoundtripReport,
    TorsionCriterionReport, ConformalStack, Alt12Report,
    NijenhuisTensor, VolumeDensity,
    SU3Structure, SolveOmegaResult, StructureEquationReport, NablaOmegaReport, NkSuiteReport,
    CriticalityReport, IterationRecord, FindCriticalResult,
)


def test_report_attributes_cannot_be_assigned():
    for cls in REPORTS:
        fields = list(inspect.signature(cls).parameters)
        rep = cls(*[None] * len(fields))
        for name in fields + ["extra"]:
            with pytest.raises(AttributeError):
                setattr(rep, name, "changed")
            assert getattr(rep, name, None) is None, (cls.__name__, name)


def test_hermitian_form_cannot_be_assigned():
    # the gated value: a reassigned field would skip its gate or its reading in the frame
    J = AlmostComplexStructure(catalog("s3s3").J)
    h = HermitianForm(J.frame(), product_omega())
    for name in ("frame", "omega", "metric", "block", "det", "extra"):
        with pytest.raises(AttributeError):
            setattr(h, name, None)


def test_structure_holds_only_its_matrix():
    J = AlmostComplexStructure(catalog("s3s3").J)
    J.frame()
    J.bidegree_projector(2, 1)
    J.derivation_matrix(3)
    assert set(vars(J)) == {"matrix"}


def test_export_lists_resolve():
    # the package names resolve lazily to their layers' objects, and every name a
    # layer exports exists there: the benchmark's tracer walks these lists
    for name in nkvol.__all__:
        layer = import_module(f"nkvol.{nkvol._MODULE_OF[name]}")
        assert name in layer.__all__ and getattr(nkvol, name) is getattr(layer, name), name
    for info in pkgutil.iter_modules(nkvol.__path__):
        layer = import_module(f"nkvol.{info.name}")
        assert all(hasattr(layer, name) for name in layer.__all__), info.name


def _names_read(node) -> set:
    """The names and attribute names a syntax tree reads: comments, docstrings and
    the strings of `__all__` do not count."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_exported_name_runs_in_the_package_or_the_benchmark():
    # a name that only the tests call belongs in tests/helpers.py, not in a layer's __all__
    layers = {p.stem: ast.parse(p.read_text(encoding="utf-8")).body
              for p in sorted((ROOT / "src" / "nkvol").glob("*.py"))}
    reads = {stem: [(getattr(node, "name", None), _names_read(node)) for node in body]
             for stem, body in layers.items()}
    for p in (ROOT / "perfbench").glob("*.py"):
        reads[p.name] = [(None, _names_read(ast.parse(p.read_text(encoding="utf-8"))))]
    unused = []
    for stem in layers.keys() - {"__init__"}:
        for name in import_module(f"nkvol.{stem}").__all__:
            # in its own layer, a read inside the name's own definition does not count
            if not any(name in names for key, statements in reads.items()
                       for defined, names in statements if key != stem or defined != name):
                unused.append(f"{stem}.{name}")
    assert not unused, sorted(unused)


def test_every_tolerance_is_read_in_the_package():
    # every report prints the table, so an entry that only the tests read belongs
    # in the tests; a read is a string literal outside docstrings, outside conventions.py
    from nkvol.conventions import TOLERANCES

    read = set()
    for p in sorted((ROOT / "src" / "nkvol").glob("*.py")):
        if p.name == "conventions.py":
            continue
        tree = ast.parse(p.read_text(encoding="utf-8"))
        docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        read |= {node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)
                 and id(node) not in docstrings}
    unread = sorted(TOLERANCES.keys() - read)
    assert not unread, unread


def _called(node) -> str | None:
    """The name a call node calls, as `f` or `x.f`; None for any other node."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "attr", getattr(node.func, "id", None))
    return None


def test_every_eigvalsh_call_feeds_the_definite_gate():
    # definiteness is decided in one place, `definite_sign`: every eigvalsh in the package
    # is its argument, directly or through the name it is assigned to in the same function
    fed = 0
    for p in sorted((ROOT / "src" / "nkvol").glob("*.py")):
        tree = ast.parse(p.read_text(encoding="utf-8"))
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            nodes = list(ast.walk(fn))
            names = {id(a.value): a.targets[0].id for a in nodes if isinstance(a, ast.Assign)
                     and len(a.targets) == 1 and isinstance(a.targets[0], ast.Name)}
            gated = {ast.dump(arg) for n in nodes if _called(n) == "definite_sign"
                     for arg in n.args}
            for call in (n for n in nodes if _called(n) == "eigvalsh"):
                feeds = {ast.dump(call)}
                if id(call) in names:
                    feeds.add(ast.dump(ast.Name(names[id(call)], ast.Load())))
                assert feeds & gated, f"{p.name}:{call.lineno}: eigenvalues outside definite_sign"
                fed += 1
    assert fed >= 3  # Metric, the conformal candidate and the cone 3-form
