"""Values are immutable: no report can be reassigned, and J carries no hidden state."""

import inspect
import pkgutil
from importlib import import_module

import pytest

import nkvol
from nkvol.frame_manifold import JacobiReport, Manifest, catalog
from nkvol.acs import AlmostComplexStructure
from nkvol.g2_cone import ConeForm, FernandezGrayReport, MetricRoundtripReport, Stable3FormReport
from nkvol.hermitian_torsion import (Alt12Report, ConformalSolveReport, ConformalStack,
                                     TorsionCriterionReport)
from nkvol.nijenhuis import NijenhuisTensor, VolumeDensity
from nkvol.nk_su3 import (NablaOmegaReport, NkSuiteReport, SolveOmegaResult,
                          StructureEquationReport, SU3Structure)
from nkvol.variation_opt import CriticalityReport, FindCriticalResult, IterationRecord

REPORTS = (
    JacobiReport, Manifest,
    ConeForm, Stable3FormReport, FernandezGrayReport, MetricRoundtripReport,
    TorsionCriterionReport, ConformalSolveReport, ConformalStack, Alt12Report,
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
