"""Invariant deformations of J, the volume functional, and critical-point search.

Deformations are Kodaira-Spencer tensors delta in Lambda^{0,1} (x) T^{1,0},
stored as complex 3x3 matrices over a chosen (1,0) frame: the deformed
structure has T^{0,1} spanned by the graph vectors

    conj(v_b) + t sum_a delta[a, b] v_a.

The functional is the density of the canonical Nijenhuis volume form; its
analytic first variation is the (2,2) pairing

    dPsi(delta) = 2 Re density( Pi^{2,2} d(delta-as-(2,1)-form) ^ omega )

in the |rho|_omega = 1 gauge, equal to the central finite-difference
derivative up to the single frozen constant KAPPA_CONV.  The optimizer
minimizes the squared criticality residual |Pi^{(2,1)+(1,2)} d omega|^2 over
the 18 real deformation parameters with a damped Gauss-Newton loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .multilinear import Form, contract, form_from_one_coeffs, wedge, zero_form
from .frame_manifold import CoframeAlgebra, d_invariant
from .acs import AlmostComplexStructure, ComplexFrame, bidegree_project
from .conventions import KAPPA_CONV, TOLERANCES, ZH_DUALITY_FACTOR, within
from .hermitian_torsion import ConformalSolveReport, conformal_solve, norm30_sq, torsion_criterion
from .nijenhuis import nijenhuis_via_brackets, volume_form
from .nk_su3 import NkSuiteReport, nk_equivalence_suite

__all__ = [
    "CriticalityReport",
    "Deformation",
    "FindCriticalResult",
    "criticality_residual_vector",
    "criticality_test",
    "deform_J",
    "delta_basis",
    "find_critical",
    "psi_gradient_analytic",
    "psi_gradient_fd",
    "psi_value",
]

PSI_FD_STEP = 1e-4        # central difference of psi_gradient_fd, halved once by Richardson
JACOBIAN_FD_STEP = 1e-6   # central difference of the optimizer's Jacobian, per real parameter


@dataclass(frozen=True)
class Deformation:
    """delta in Lambda^{0,1} (x) T^{1,0} as a matrix over a (1,0) frame."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (3, 3):
            raise ValueError("deformation matrix must be 3x3 complex")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def from_real_params(p) -> "Deformation":
        p = np.asarray(p, dtype=np.float64)
        if p.shape != (18,):
            raise ValueError("expected 18 real parameters")
        return Deformation((p[:9] + 1j * p[9:]).reshape(3, 3))


def delta_basis() -> list[Deformation]:
    """The 18 canonical real directions (E_ab and i E_ab)."""
    return [Deformation.from_real_params(p) for p in np.eye(18)]


def deform_J(J: AlmostComplexStructure, delta: Deformation, t: float,
             frame: ComplexFrame | None = None) -> AlmostComplexStructure:
    """Move along the Grassmannian graph chart; exact J^2 = -Id by construction."""
    if t == 0.0:
        return J
    fr = frame if frame is not None else J.frame()
    V = fr.v_coords
    W = np.conj(V) + t * V @ delta.matrix  # columns conj(v_b) + t sum_a delta[a, b] v_a
    B = np.hstack([np.conj(W), W])
    det = np.linalg.det(B)
    if not abs(det) > TOLERANCES["complementary"]:
        raise ValueError(f"graph not complementary to its conjugate (det = {det:.3e})")
    D = np.diag([1j] * 3 + [-1j] * 3)
    Jnew = (B @ D @ np.linalg.inv(B)).real
    return AlmostComplexStructure(Jnew)


def psi_value(alg: CoframeAlgebra, J: AlmostComplexStructure) -> float:
    """Density of the canonical volume form; zero iff the tensor degenerates."""
    return volume_form(nijenhuis_via_brackets(alg, J)).psi


def delta_as_21_form(alg: CoframeAlgebra, J: AlmostComplexStructure, omega: Form,
                     delta: Deformation, frame: ComplexFrame | None = None) -> Form:
    """Convert delta to a (2,1)-form through the unit-norm trilinear identification.

    T^{1,0} is identified with Lambda^{2,0} by contracting into the skew
    (3,0) part P of omega(N(.,.),.), normalized to |P|_omega = 1 and rescaled
    by the inverse duality factor so that on shape-equation solutions the
    Nijenhuis endomorphism itself is identified with the identity.
    """
    fr = frame if frame is not None else J.frame()
    crit = torsion_criterion(alg, J, omega)
    P = crit.lambda30_component
    if within(P.norm(), "vanishes"):
        raise ValueError("trilinear identification degenerate: skew part of rho vanishes")
    P = (1.0 / (ZH_DUALITY_FACTOR * np.sqrt(norm30_sq(omega, P)))) * P
    # sum_ab delta[a, b] (iota_{v_a} P) ^ conj theta^b; row a of legs is
    # sum_b delta[a, b] conj theta^b
    legs = delta.matrix @ fr.coframe[3:]
    out = zero_form(6, 3)
    for a in range(3):
        out = out + wedge(contract(fr.v(a), P), form_from_one_coeffs(6, legs[a]))
    return out


def psi_gradient_analytic(alg: CoframeAlgebra, J: AlmostComplexStructure,
                          omega: Form, delta: Deformation) -> float:
    """2 Re density(Pi^{2,2} d(delta-form) ^ omega), in the |rho| = 1 gauge."""
    nij = nijenhuis_via_brackets(alg, J)
    if not nij.nondegenerate:
        raise ValueError("gradient undefined: Nijenhuis tensor degenerate")
    dform = delta_as_21_form(alg, J, omega, delta, frame=nij.frame)
    dd = bidegree_project(J, d_invariant(alg, dform), 2, 2)
    pairing = wedge(dd, omega)
    orient = volume_form(nij).orientation
    return float(KAPPA_CONV * 2.0 * (pairing.coeffs[0] * orient).real)


def psi_gradient_fd(alg: CoframeAlgebra, J: AlmostComplexStructure,
                    delta: Deformation) -> float:
    """Central finite differences with one Richardson extrapolation step."""
    fr = J.frame()

    def d_at(h: float) -> float:
        plus = psi_value(alg, deform_J(J, delta, h, frame=fr))
        minus = psi_value(alg, deform_J(J, delta, -h, frame=fr))
        return (plus - minus) / (2.0 * h)

    d1 = d_at(PSI_FD_STEP)
    d2 = d_at(PSI_FD_STEP / 2.0)
    return (4.0 * d2 - d1) / 3.0


# ---------------------------------------------------------------------------
# Criticality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalityReport:
    verdict: str                 # "critical" | "non-critical" | "degenerate"
    residual: float              # sup-norm of the (2,1)+(1,2) part of d omega
    degenerate: bool
    omega: Form | None

    @property
    def critical(self) -> bool:
        return self.verdict == "critical"


def criticality_residual_vector(alg: CoframeAlgebra, J: AlmostComplexStructure,
                                conformal: ConformalSolveReport | None = None):
    """Real residual vector of the off-shape part of d omega, or None.

    None signals that no positive candidate Hermitian form exists at J, which
    the optimizer treats as a rejected step.
    """
    rep = conformal if conformal is not None else conformal_solve(alg, J)
    w = rep.normalized_omega
    if w is None:
        return None, rep
    dw = d_invariant(alg, w)
    off = bidegree_project(J, dw, 2, 1) + bidegree_project(J, dw, 1, 2)
    vec = np.concatenate([off.coeffs.real, off.coeffs.imag])
    return vec, rep


def criticality_test(alg: CoframeAlgebra, J: AlmostComplexStructure,
                     omega: Form | None = None) -> CriticalityReport:
    """Extremality criterion: d omega confined to bidegrees (3,0) + (0,3).

    With a degenerate Nijenhuis tensor the functional vanishes identically on
    invariant deformations; that case is reported as degenerate and excluded
    from the equivalence contract.
    """
    nij = nijenhuis_via_brackets(alg, J)
    if not nij.nondegenerate:
        return CriticalityReport("degenerate", 0.0, True, omega)
    if omega is None:
        rep = conformal_solve(alg, J)
        omega = rep.normalized_omega
        if omega is None:
            raise ValueError("no positive candidate omega at this structure")
    dw = d_invariant(alg, omega)
    off = bidegree_project(J, dw, 2, 1) + bidegree_project(J, dw, 1, 2)
    residual = off.norm() / max(1.0, dw.norm())
    verdict = "critical" if within(residual, "shape") else "non-critical"
    return CriticalityReport(verdict, float(residual), False, omega)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

@dataclass
class FindCriticalResult:
    J: AlmostComplexStructure
    converged: bool
    iterations: int
    trace: list[float] = field(default_factory=list)
    omega: Form | None = None
    suite: NkSuiteReport | None = None
    reason: str = ""


def _objective(vec) -> float:
    return float(vec @ vec)


def find_critical(alg: CoframeAlgebra, J0: AlmostComplexStructure,
                  tol: float = TOLERANCES["objective"], max_iter: int = 100,
                  seed: int = 0) -> FindCriticalResult:
    """Damped Gauss-Newton minimization of the squared criticality residual.

    Steps are taken in the 18-parameter graph chart recentered at each
    iterate; steps that degenerate the tensor, lose positivity of the
    candidate metric, or run the structure out of the working region are
    rejected and the damping increased.  The accepted trace is monotone by
    construction.  If the local model stalls above tolerance, a bounded set
    of seeded kick directions is probed and a kick is accepted only when it
    strictly lowers the objective.

    Success is gated on the equivalence suite: a vanishing residual reached
    by escaping the compatibility domain (the normalization gauge can
    collapse the residual on structures with no critical point) is reported
    as a failure, never as a solution.
    """
    if not 0.0 < tol < np.inf:  # written so that NaN fails it
        raise ValueError(f"tol must be a finite positive number, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    inner_tol = min(tol, 1e-26)
    vec, rep = criticality_residual_vector(alg, J0)
    if vec is None:
        return FindCriticalResult(J0, False, 0, [], None,
                                  reason="no positive candidate omega at start")
    J = J0
    R = _objective(vec)
    trace = [R]
    mu = 1e-4
    rng = np.random.default_rng(seed)
    iterations = 0
    reason = "converged"
    norm_cap = 100.0 * max(1.0, np.linalg.norm(J0.matrix, 2))
    while R > inner_tol and iterations < max_iter:
        jac = np.zeros((len(vec), 18))
        fr = J.frame()
        for p in range(18):
            dp = np.zeros(18)
            dp[p] = JACOBIAN_FD_STEP
            d = Deformation.from_real_params(dp)
            try:
                vp, _ = criticality_residual_vector(alg, deform_J(J, d, 1.0, frame=fr))
                vm, _ = criticality_residual_vector(alg, deform_J(J, d, -1.0, frame=fr))
            except ValueError:
                vp = vm = None
            if vp is None or vm is None:
                jac[:, p] = 0.0
            else:
                jac[:, p] = (vp - vm) / (2.0 * JACOBIAN_FD_STEP)
        accepted = False
        for _ in range(40):
            try:
                step = np.linalg.solve(jac.T @ jac + mu * np.eye(18), -jac.T @ vec)
            except np.linalg.LinAlgError:
                mu *= 4.0
                continue
            try:
                Jtry = deform_J(J, Deformation.from_real_params(step), 1.0, frame=fr)
                vt, _ = criticality_residual_vector(alg, Jtry)
                if np.linalg.norm(Jtry.matrix, 2) > norm_cap:
                    vt = None  # left the working region: treat as a rejected step
            except ValueError:
                vt = None
            if vt is not None and _objective(vt) < R:
                J, vec, R = Jtry, vt, _objective(vt)
                mu = max(mu / 3.0, 1e-14)
                accepted = True
                break
            mu *= 4.0
        if not accepted:
            # bounded deterministic kicks; accepted only on strict descent
            for mag in (0.02, 0.05, 0.1, 0.2):
                for _ in range(6):
                    kick = Deformation.from_real_params(mag * rng.standard_normal(18))
                    try:
                        Jtry = deform_J(J, kick, 1.0)
                        vt, _ = criticality_residual_vector(alg, Jtry)
                        if np.linalg.norm(Jtry.matrix, 2) > norm_cap:
                            continue
                    except ValueError:
                        continue
                    if vt is not None and _objective(vt) < R:
                        J, vec, R = Jtry, vt, _objective(vt)
                        accepted = True
                        break
                if accepted:
                    break
        if not accepted:
            reason = "trust region exhausted above tolerance"
            break
        trace.append(R)
        iterations += 1
    converged = within(R, tol)
    if converged and reason == "converged" and R > inner_tol and iterations >= max_iter:
        reason = "max iterations reached after convergence"
    if not converged and reason == "converged":
        reason = "max iterations reached"
    omega = None
    suite = None
    if converged:
        _, rep = criticality_residual_vector(alg, J)
        omega = rep.normalized_omega
        suite = nk_equivalence_suite(alg, J, omega)
        if not suite.all_true:
            converged = False
            reason = ("residual vanished outside the compatibility domain: "
                      "the equivalence suite rejects the candidate")
    return FindCriticalResult(J, converged, iterations, trace, omega, suite, reason)
