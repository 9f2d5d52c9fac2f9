"""SU(3) structures and the nearly Kahler structure equations.

An SU(3) structure here is (omega, Omega, lambda): a positive real (1,1)-form,
as its `HermitianForm`, a (3,0)-form normalized to unit length against omega, and
the real constant tying them through the nearly Kahler equations

    d omega = 3 lambda Re Omega,        d Omega = -2i lambda omega^2.

The module solves for Omega given omega, evaluates the residuals of both
equations, runs the Levi-Civita antisymmetry check on nabla omega, and packages
the three equivalent characterizations (skew-torsion criterion, structure
equations, nabla-omega antisymmetry) into one suite whose verdicts must agree
on every nondegenerate input.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .multilinear import Form, _index_array, two_form_matrices, wedge
from .frame_manifold import CoframeAlgebra, covariant_derivative_form, d_invariant, levi_civita
from .conventions import NABLA_OMEGA_TO_DOMEGA, TOLERANCES, within
from .hermitian_torsion import HermitianForm, norm30_sq, offshape_residual, torsion_criterion
from .nijenhuis import NijenhuisTensor

__all__ = [
    "NablaOmegaReport",
    "NkSuiteReport",
    "SU3Structure",
    "SolveOmegaResult",
    "StructureEquationReport",
    "check_nabla_omega",
    "check_structure_equations",
    "nk_equivalence_suite",
    "solve_Omega",
]


class SU3Structure(NamedTuple):
    """(omega, Omega, lambda) on J, with (J, omega) the `HermitianForm` its command gated."""

    form: HermitianForm
    Omega: Form
    lam: float


class SolveOmegaResult(NamedTuple):
    ok: bool
    Omega: Form | None
    lam: float
    offshape_residual: float   # size of the (2,1)+(1,2) part of d omega
    reason: str = ""


def solve_Omega(alg: CoframeAlgebra, nij: NijenhuisTensor, h: HermitianForm) -> SolveOmegaResult:
    """Write d omega = 3 lambda Re Omega with |Omega| = 1 in nij's frame, or fail with residual."""
    off, c, domega = offshape_residual(alg, h.read_in(nij.frame))
    p30 = c * nij.frame.theta_top()
    if within(domega.norm(), "vanishes"):
        return SolveOmegaResult(False, None, 0.0, 0.0, reason="d omega = 0: no strict solution")
    if within(p30.norm(), "vanishes", max(1.0, domega.norm())):
        return SolveOmegaResult(False, None, 0.0, off, reason="d omega has no (3,0) component")
    if not within(off, "shape"):
        return SolveOmegaResult(False, None, 0.0, off,
                                reason="d omega has (2,1)+(1,2) components: not of the required shape")
    u = np.sqrt(norm30_sq(c, h.det))
    if not np.isfinite(u):
        raise ValueError(f"norm computation returned a non-finite value {u}")
    Omega = (1.0 / u) * p30
    lam = 2.0 * u / 3.0
    return SolveOmegaResult(True, Omega, float(lam), off)


class StructureEquationReport(NamedTuple):
    r1: float   # |d omega - 3 lambda Re Omega|
    r2: float   # |d Omega + 2i lambda omega^2|
    r3: float   # |d Im Omega + 2 lambda omega^2|

    def passes(self) -> bool:
        return within(max(self.r1, self.r2, self.r3), "verdict")


def check_structure_equations(alg: CoframeAlgebra, s: SU3Structure) -> StructureEquationReport:
    domega = d_invariant(alg, s.form.omega)
    w2 = wedge(s.form.omega, s.form.omega)
    r1 = (domega - (3.0 * s.lam) * s.Omega.real()).norm()
    r2 = (d_invariant(alg, s.Omega) + (2j * s.lam) * w2).norm()
    r3 = (d_invariant(alg, s.Omega.imag()) + (2.0 * s.lam) * w2).norm()
    scale = max(1.0, domega.norm(), w2.norm())
    return StructureEquationReport(r1 / scale, r2 / scale, r3 / scale)


class NablaOmegaReport(NamedTuple):
    antisymmetry_residual: float     # non-totally-antisymmetric part of nabla omega
    identification_residual: float   # |3 Alt(nabla omega) - d omega|
    strictness_min: float            # min over frame directions of |nabla_{e_i} omega|
    strict: bool


def _skew_part(T: np.ndarray) -> np.ndarray:
    """Total antisymmetrization of tensors T[x, y, z] already skew in one pair of slots."""
    return (T + np.einsum("...bca->...abc", T) + np.einsum("...cab->...abc", T)) / 3.0


def check_nabla_omega(alg: CoframeAlgebra, h: HermitianForm) -> NablaOmegaReport:
    """Levi-Civita test: nabla omega totally antisymmetric, equal to d omega."""
    gamma = levi_civita(alg, h.metric)
    nablas = covariant_derivative_form(gamma, h.omega)
    T = two_form_matrices(np.array([f.coeffs for f in nablas]), 6).real
    S = _skew_part(T)
    scale = max(1.0, float(np.max(np.abs(T))))
    anti_res = float(np.max(np.abs(T - S))) / scale

    # identify the antisymmetric part with a 3-form and compare with d omega
    j, k, l = _index_array(6, 3).T
    phi = Form(6, 3, S[j, k, l])
    domega = d_invariant(alg, h.omega)
    ident_res = (NABLA_OMEGA_TO_DOMEGA * phi - domega).norm() / max(1.0, domega.norm())

    per_dir = np.array([f.norm() for f in nablas])
    mat = np.array([f.coeffs for f in nablas])
    sigmas = np.linalg.svd(np.vstack([mat.real.T, mat.imag.T]), compute_uv=False)
    smin = float(sigmas[5])
    strict = bool(per_dir.min() > TOLERANCES["strict"] * max(1.0, per_dir.max())
                  and smin > TOLERANCES["strict"])
    return NablaOmegaReport(
        antisymmetry_residual=anti_res,
        identification_residual=float(ident_res),
        strictness_min=float(per_dir.min()),
        strict=strict,
    )


class NkSuiteReport(NamedTuple):
    torsion_ok: bool
    equations_ok: bool
    nabla_ok: bool
    degenerate: bool
    hypothesis_ok: bool     # d omega of the required (3,0)+(0,3) shape
    skewness_residual: float
    offshape_residual: float
    equation_report: StructureEquationReport | None
    nabla_report: NablaOmegaReport
    lam: float
    Omega: Form | None      # the solved Omega, when d omega has the required shape
    reason: str = ""

    @property
    def verdicts(self) -> tuple[bool, bool, bool]:
        return (self.torsion_ok, self.equations_ok, self.nabla_ok)

    @property
    def all_true(self) -> bool:
        return all(self.verdicts) and not self.degenerate

    def consistent(self) -> bool:
        """The executable equivalence contract.

        Under the hypothesis the three verdicts must coincide; outside it the
        suite must not certify the structure as nearly Kahler, and any partial
        must be residual-consistent (the failing shape residual explains them).
        """
        if self.degenerate:
            return not (self.equations_ok or self.nabla_ok)
        if self.hypothesis_ok:
            return self.torsion_ok == self.equations_ok == self.nabla_ok
        return not self.equations_ok and not self.nabla_ok


def nk_equivalence_suite(alg: CoframeAlgebra, nij: NijenhuisTensor,
                         h: HermitianForm) -> NkSuiteReport:
    """Evaluate the three equivalent characterizations on h = (J, omega), nij the N* tensor of J.

    The contract, which the test-suite enforces on every nondegenerate input:
    the three verdicts agree.  Degenerate inputs (vanishing Nijenhuis tensor,
    d omega = 0) are reported separately since the equivalence concerns the
    strict lambda > 0 regime.
    """
    crit = torsion_criterion(nij, h)
    solved = solve_Omega(alg, nij, h)
    eq_rep = (check_structure_equations(alg, SU3Structure(h, solved.Omega, solved.lam))
              if solved.ok else None)
    nab_rep = check_nabla_omega(alg, h)
    return NkSuiteReport(
        torsion_ok=crit.admits_connection,
        equations_ok=eq_rep is not None and eq_rep.passes() and solved.lam > TOLERANCES["strict"],
        nabla_ok=(within(nab_rep.antisymmetry_residual, "verdict") and nab_rep.strict
                  and within(nab_rep.identification_residual, "nabla_identification")),
        degenerate="d omega = 0" in solved.reason or not nij.nondegenerate,
        hypothesis_ok=solved.ok,
        skewness_residual=crit.skewness_residual,
        offshape_residual=solved.offshape_residual,
        equation_report=eq_rep,
        nabla_report=nab_rep,
        lam=solved.lam,
        Omega=solved.Omega,
        reason=solved.reason,
    )
