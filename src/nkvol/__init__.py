"""nkvol: invariant almost complex structures on 6-dimensional coframe models.

Exact exterior calculus over Lie coframes, the Nijenhuis tensor and its
canonical volume density, the skew-torsion compatibility criterion, nearly
Kahler structure equations, G2 cone geometry, and a numerical search for
critical points of the volume functional.  Everything is finite-dimensional
linear algebra over structure constants; all values are immutable and all
operations pure.

The names below are loaded on first access (PEP 562), so importing one
submodule, as every command-line call does, does not import the others.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "multilinear": ("Form", "Metric", "contract", "hodge_star", "wedge"),
    "frame_manifold": ("CoframeAlgebra", "Manifest", "catalog", "check_jacobi", "d_invariant"),
    "acs": ("AlmostComplexStructure",),
    "nijenhuis": ("nijenhuis_via_brackets", "nijenhuis_via_d", "volume_form"),
    "hermitian_torsion": ("HermitianForm", "alt12_analysis", "conformal_solve", "torsion_criterion"),
    "nk_su3": ("SU3Structure", "nk_equivalence_suite", "solve_Omega"),
    "g2_cone": ("build_cone_3form", "fernandez_gray_check", "metric_roundtrip", "stability_check"),
    "variation_opt": ("Deformation", "criticality_test", "deform_J", "find_critical"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)

