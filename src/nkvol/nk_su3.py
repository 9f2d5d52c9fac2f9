"""SU(3) structures and the nearly Kahler structure equations.

An SU(3) structure here is (omega, Omega, lambda): a positive real (1,1)-form,
a (3,0)-form normalized to unit length against omega, and the real constant
tying them through the nearly Kahler equations

    d omega = 3 lambda Re Omega,        d Omega = -2i lambda omega^2.

The module solves for Omega given omega, evaluates the residuals of both
equations, runs the Levi-Civita antisymmetry check on nabla omega, and packages
the three equivalent characterizations (skew-torsion criterion, structure
equations, nabla-omega antisymmetry) into one suite whose verdicts must agree
on every nondegenerate input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .multilinear import Form, forms_close, index_tuples, two_form_matrix, wedge
from .frame_manifold import CoframeAlgebra, covariant_derivative_form, d_invariant, levi_civita
from .acs import AlmostComplexStructure, ComplexFrame, bidegree_project, frame_from_thetas, is_pure_bidegree
from .conventions import NABLA_OMEGA_TO_DOMEGA, ZH_DUALITY_FACTOR
from .hermitian_torsion import hermitian_metric, norm30_sq, torsion_criterion
from .nijenhuis import nijenhuis_via_brackets

__all__ = [
    "NablaOmegaReport",
    "NkSuiteReport",
    "SU3Structure",
    "SolveOmegaResult",
    "StructureEquationReport",
    "adapted_frame",
    "check_nabla_omega",
    "check_structure_equations",
    "lemma_d_splitting_checks",
    "nk_equivalence_suite",
    "solve_Omega",
]

VERDICT_TOL = 1e-8


@dataclass(frozen=True)
class SU3Structure:
    J: AlmostComplexStructure
    omega: Form
    Omega: Form
    lam: float

    def vol_h(self) -> Form:
        return (1.0 / 6.0) * wedge(wedge(self.omega, self.omega), self.omega)

    def validate(self, tol: float = 1e-9) -> dict:
        """Invariant diagnostics: |Omega| = 1, purity of bidegrees."""
        n30 = norm30_sq(self.omega, self.Omega)
        pure = (bidegree_project(self.J, self.Omega, 3, 0) - self.Omega).norm()
        return {"norm_defect": abs(n30 - 1.0), "bidegree_defect": pure}


@dataclass(frozen=True)
class SolveOmegaResult:
    ok: bool
    Omega: Form | None
    lam: float
    offshape_residual: float   # size of the (2,1)+(1,2) part of d omega
    reason: str = ""


def solve_Omega(alg: CoframeAlgebra, J: AlmostComplexStructure, omega: Form,
                tol: float = 1e-9) -> SolveOmegaResult:
    """Write d omega = 3 lambda Re Omega with |Omega| = 1, or fail with residual."""
    if not is_pure_bidegree(J, omega, 1, 1) or not omega.is_real(tol=1e-9):
        raise ValueError("solve expects a real (1,1)-form")
    domega = d_invariant(alg, omega)
    scale = max(1.0, domega.norm())
    off = (bidegree_project(J, domega, 2, 1) + bidegree_project(J, domega, 1, 2)).norm()
    p30 = bidegree_project(J, domega, 3, 0)
    if domega.norm() <= 1e-12:
        return SolveOmegaResult(False, None, 0.0, 0.0, reason="d omega = 0: no strict solution")
    if p30.norm() <= 1e-12 * scale:
        return SolveOmegaResult(False, None, 0.0, off / scale,
                                reason="d omega has no (3,0) component")
    if off > tol * scale:
        return SolveOmegaResult(False, None, 0.0, off / scale,
                                reason="d omega has (2,1)+(1,2) components: not of the required shape")
    u = np.sqrt(norm30_sq(omega, p30))
    Omega = (1.0 / u) * p30
    lam = 2.0 * u / 3.0
    return SolveOmegaResult(True, Omega, float(lam), off / scale)


@dataclass(frozen=True)
class StructureEquationReport:
    r1: float   # |d omega - 3 lambda Re Omega|
    r2: float   # |d Omega + 2i lambda omega^2|
    r3: float   # |d Im Omega + 2 lambda omega^2|

    def passes(self, tol: float = VERDICT_TOL) -> bool:
        return max(self.r1, self.r2, self.r3) <= tol


def check_structure_equations(alg: CoframeAlgebra, s: SU3Structure) -> StructureEquationReport:
    domega = d_invariant(alg, s.omega)
    w2 = wedge(s.omega, s.omega)
    r1 = (domega - (3.0 * s.lam) * s.Omega.real()).norm()
    r2 = (d_invariant(alg, s.Omega) + (2j * s.lam) * w2).norm()
    r3 = (d_invariant(alg, s.Omega.imag()) + (2.0 * s.lam) * w2).norm()
    scale = max(1.0, domega.norm(), w2.norm())
    return StructureEquationReport(r1 / scale, r2 / scale, r3 / scale)


@dataclass(frozen=True)
class NablaOmegaReport:
    antisymmetry_residual: float     # non-totally-antisymmetric part of nabla omega
    identification_residual: float   # |3 Alt(nabla omega) - d omega|
    strictness_min: float            # min over frame directions of |nabla_{e_i} omega|
    strictness_sigma: float          # smallest singular value of X -> nabla_X omega
    strict: bool

    def totally_antisymmetric(self, tol: float = VERDICT_TOL) -> bool:
        return self.antisymmetry_residual <= tol


def check_nabla_omega(alg: CoframeAlgebra, s: SU3Structure) -> NablaOmegaReport:
    """Levi-Civita test: nabla omega totally antisymmetric, equal to d omega."""
    g = hermitian_metric(s.J, s.omega)
    gamma = levi_civita(alg, g)
    nablas = covariant_derivative_form(gamma, s.omega)
    T = np.array([two_form_matrix(f).real for f in nablas])
    S = (T + np.einsum("jki->ijk", T) + np.einsum("kij->ijk", T)) / 3.0
    scale = max(1.0, float(np.max(np.abs(T))))
    anti_res = float(np.max(np.abs(T - S))) / scale

    # identify the antisymmetric part with a 3-form and compare with d omega
    j, k, l = (np.array(index_tuples(6, 3)) - 1).T
    phi = Form(6, 3, S[j, k, l])
    domega = d_invariant(alg, s.omega)
    ident_res = (NABLA_OMEGA_TO_DOMEGA * phi - domega).norm() / max(1.0, domega.norm())

    per_dir = np.array([f.norm() for f in nablas])
    mat = np.array([f.coeffs for f in nablas])
    sigmas = np.linalg.svd(np.vstack([mat.real.T, mat.imag.T]), compute_uv=False)
    smin = float(sigmas[5]) if len(sigmas) >= 6 else 0.0
    strict = bool(per_dir.min() > 1e-8 * max(1.0, per_dir.max()) and smin > 1e-8)
    return NablaOmegaReport(
        antisymmetry_residual=anti_res,
        identification_residual=float(ident_res),
        strictness_min=float(per_dir.min()),
        strictness_sigma=smin,
        strict=strict,
    )


@dataclass(frozen=True)
class NkSuiteReport:
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


def nk_equivalence_suite(alg: CoframeAlgebra, J: AlmostComplexStructure,
                         omega: Form, tol: float = VERDICT_TOL) -> NkSuiteReport:
    """Evaluate the three equivalent characterizations on (J, omega).

    The contract, which the test-suite enforces on every nondegenerate input:
    the three verdicts agree.  Degenerate inputs (vanishing Nijenhuis tensor,
    d omega = 0) are reported separately since the equivalence concerns the
    strict lambda > 0 regime.
    """
    crit = torsion_criterion(alg, J, omega)
    nij = nijenhuis_via_brackets(alg, J)
    degenerate = not nij.nondegenerate

    solved = solve_Omega(alg, J, omega, tol=max(tol, 1e-9))
    if solved.ok:
        s = SU3Structure(J, omega, solved.Omega, solved.lam)
        eq_rep = check_structure_equations(alg, s)
        equations_ok = eq_rep.passes(tol) and solved.lam > 1e-8
        nab_rep = check_nabla_omega(alg, s)
    else:
        degenerate = degenerate or "d omega = 0" in solved.reason
        eq_rep = None
        equations_ok = False
        dummy = SU3Structure(J, omega, _unit30(J), 0.0)
        nab_rep = check_nabla_omega(alg, dummy)
    nabla_ok = nab_rep.totally_antisymmetric(tol) and nab_rep.strict \
        and nab_rep.identification_residual <= max(tol, 1e-7)
    return NkSuiteReport(
        torsion_ok=crit.admits_connection,
        equations_ok=equations_ok,
        nabla_ok=nabla_ok,
        degenerate=degenerate,
        hypothesis_ok=solved.ok,
        skewness_residual=crit.skewness_residual,
        offshape_residual=solved.offshape_residual,
        equation_report=eq_rep,
        nabla_report=nab_rep,
        lam=solved.lam,
        reason=solved.reason,
    )


def _unit30(J: AlmostComplexStructure) -> Form:
    return J.frame().theta_top()


def adapted_frame(J: AlmostComplexStructure, omega: Form,
                  Omega: Form | None = None) -> ComplexFrame:
    """An orthonormal (1,0) coframe (|theta|^2 = 2 each) with Omega = theta^123.

    The normalization matches the flat model, where dz_k = e^{2k-1} + i e^{2k}
    has squared length 2 and dz1 ^ dz2 ^ dz3 has unit norm against omega0.
    """
    g = hermitian_metric(J, omega)
    ginv = g.inverse()
    fr0 = J.frame()
    rows = fr0.theta_coeffs
    H = rows @ ginv @ np.conj(rows).T
    L = np.linalg.cholesky(H)
    rows_on = np.sqrt(2.0) * np.linalg.solve(L, rows)
    fr = frame_from_thetas(J, rows_on)
    if Omega is not None:
        c = Omega.evaluate([fr.v(0), fr.v(1), fr.v(2)])
        if abs(c) < 1e-12:
            raise ValueError("Omega degenerate in the adapted frame")
        rows_on = rows_on.copy()
        rows_on[0] = c * rows_on[0]  # absorbs the phase so Omega = theta^123 exactly
        fr = frame_from_thetas(J, rows_on)
    return fr


def lemma_d_splitting_checks(alg: CoframeAlgebra, s: SU3Structure) -> dict:
    """Residuals of the four-way d-splitting identities on (Omega, conj Omega).

    Checks d^{0,1} Omega = 0, d^{1,0} conj(Omega) = 0, the pairing of the two
    (2,2) components, the identity d Omega = -d^{2,-1} conj(Omega) =
    d^{-1,2} Omega, and the diagonal action of the Nijenhuis map on the
    adapted conjugate coframe.
    """
    J = s.J
    dO = d_invariant(alg, s.Omega)
    dOb = d_invariant(alg, s.Omega.conjugate())
    scale = max(1.0, dO.norm())
    res = {
        "d01_Omega": bidegree_project(J, dO, 3, 1).norm() / scale,
        "d10_Omega_bar": bidegree_project(J, dOb, 1, 3).norm() / scale,
        "pairing_22": (bidegree_project(J, dOb, 2, 2)
                       + bidegree_project(J, dO, 2, 2)).norm() / scale,
        "dOmega_via_d21bar": (dO + bidegree_project(J, dOb, 2, 2)).norm() / scale,
        "dOmega_via_dm12": (dO - bidegree_project(J, dO, 2, 2)).norm() / scale,
    }
    fr = adapted_frame(J, s.omega, s.Omega)
    nij = nijenhuis_via_brackets(alg, J, frame=fr)
    target = ZH_DUALITY_FACTOR * s.lam * np.eye(3)
    res["nijenhuis_diagonal"] = float(
        np.max(np.abs(nij.matrix - target)) / max(1.0, float(np.max(np.abs(nij.matrix))))
    )
    res["adapted_norm"] = abs(norm30_sq(s.omega, fr.theta_top()) - 1.0)
    return res
