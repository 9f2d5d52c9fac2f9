"""Invariant deformations of J, the volume functional, and critical-point search.

Deformations are Kodaira-Spencer tensors delta in Lambda^{0,1} (x) T^{1,0},
stored as complex 3x3 matrices over a chosen (1,0) frame: the deformed
structure has T^{0,1} spanned by the graph vectors

    conj(v_b) + t sum_a delta[a, b] v_a.

The functional is the density of the canonical Nijenhuis volume form; its
analytic first variation is the (2,2) pairing

    dPsi(delta) = 2 Re density( d(delta-as-(2,1)-form) ^ omega )

in the |rho|_omega = 1 gauge (omega is (1,1), so only the (2,2) part of the
4-form reaches top degree, and no Lambda^4 projector is built), equal to the
central finite-difference derivative up to the single frozen constant
KAPPA_CONV.  The optimizer minimizes the squared criticality residual
|Pi^{(2,1)+(1,2)} d omega|^2 over the 18 real deformation parameters with a
damped Gauss-Newton loop.  Its start point, trials and kicks run one kernel on
one structure each (`criticality_residual_vector`), and its Jacobian is that
kernel's forward-mode derivative at the accepted point (`_jacobian`), read from
the frame, N* matrix and singular vectors of the point's own evaluation.  The
residual is the off-shape part of d omega from `acs.split_30`: on a (1,0) frame
(theta, v) the (3,0) part of d omega is d omega(v_1, v_2, v_3) theta^123, and
the off-shape part is d omega minus that and its conjugate, with no Lambda^3
projector.  `criticality_test` reads the same split, through `offshape_residual`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .multilinear import contract, matvec, two_form_coeffs, wedge_coeffs
from .frame_manifold import CoframeAlgebra
from .acs import (AlmostComplexStructure, ComplexFrame, default_frame_coords, j_from_basis,
                  split_30, theta_top_coeffs, type_projectors)
from .conventions import KAPPA_CONV, TOLERANCES, ZH_DUALITY_FACTOR, within
from .hermitian_torsion import (ConformalStack, HermitianForm, candidate_tangent, conformal_stack,
                                norm30_sq, offshape_residual)
from .nijenhuis import (NijenhuisTensor, bracket_vectors, nijenhuis_matrices, rho_skew_coefficient,
                        volume_form)

if TYPE_CHECKING:
    from .nk_su3 import NkSuiteReport

__all__ = [
    "CriticalityReport",
    "Deformation",
    "FindCriticalResult",
    "IterationRecord",
    "criticality_residual_vector",
    "criticality_test",
    "deform_J",
    "delta_basis",
    "find_critical",
    "psi_gradient",
]

INNER_TARGET = 1e-26      # the search iterates until the objective is below this, or stalls


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


_DELTAS = np.array([d.matrix for d in delta_basis()])


def deform_J(J: AlmostComplexStructure, delta: Deformation, t: float,
             frame: ComplexFrame | None = None) -> AlmostComplexStructure:
    """Move along the Grassmannian graph chart; exact J^2 = -Id by construction."""
    if t == 0.0:
        return J
    fr = frame if frame is not None else J.frame()
    Jnew, det, complementary = _graph_chart(fr.v_coords, t * delta.matrix)
    if not complementary:
        raise ValueError(f"graph not complementary to its conjugate (det = {det:.3e})")
    return AlmostComplexStructure(Jnew)


def _graph_chart(V: np.ndarray, T: np.ndarray):
    """J matrices whose T^{0,1} is spanned by conj(v_b) + sum_a T[a, b] v_a.

    Returns the matrices, the determinants of the graph bases [conj W, W] and
    the complementarity gate on them; leading axes of T stack, and a slice
    failing the gate gets the matrix of the identity basis.
    """
    W = np.conj(V) + V @ T
    B = np.concatenate([np.conj(W), W], axis=-1)
    det = np.linalg.det(B)
    complementary = np.abs(det) > TOLERANCES["complementary"]  # written so that NaN fails it
    B = np.where(complementary[..., None, None], B, np.eye(6))
    return j_from_basis(B), det, complementary


def _unit_delta_forms(h: HermitianForm, nij: NijenhuisTensor) -> np.ndarray:
    """Coefficients [a, b] of the (2,1)-forms (iota_{v_a} P) ^ conj theta^b of the unit deformations E_ab.

    T^{1,0} is identified with Lambda^{2,0} by contracting into the skew
    (3,0) part P of omega(N(.,.),.), normalized to |P|_omega = 1 and rescaled
    by the inverse duality factor so that on shape-equation solutions the
    Nijenhuis endomorphism itself is identified with the identity.  omega is
    h's, read in nij's frame.
    """
    fr = nij.frame
    c = rho_skew_coefficient(h.read_in(fr).block, nij.matrix)
    P = c * fr.theta_top()
    n2 = norm30_sq(c, h.det)
    if within(P.norm(), "vanishes") or not np.isfinite(n2):
        raise ValueError(f"trilinear identification degenerate: |P|^2 = {n2:g}")
    P = (1.0 / (ZH_DUALITY_FACTOR * np.sqrt(n2))) * P
    iota = np.array([contract(fr.v(a), P).coeffs for a in range(3)])
    return wedge_coeffs(iota[:, None, :], fr.coframe[None, 3:], 6, 2, 1)


def _gradient_pairings(alg: CoframeAlgebra, nij: NijenhuisTensor, h: HermitianForm) -> np.ndarray:
    """c[a, b] = KAPPA_CONV * 2 * density(d(E_ab-form) ^ omega), oriented by h's metric.

    The first variation is linear in delta: dPsi(delta) = Re sum_ab delta[a, b] c[a, b],
    with E_ab in the frame of nij, the N* tensor of J, and omega that of h.  As omega is
    (1,1), only the (2,2) part of the 4-form d(E_ab-form) reaches top degree in the wedge.
    """
    if not nij.nondegenerate:
        raise ValueError("gradient undefined: Nijenhuis tensor degenerate")
    Q = _unit_delta_forms(h, nij)
    pairing = wedge_coeffs(matvec(alg.d_matrices[3], Q), h.omega.coeffs, 6, 4, 2)[..., 0]
    return KAPPA_CONV * 2.0 * pairing * h.metric.orientation


def psi_gradient(alg: CoframeAlgebra, nij: NijenhuisTensor, h: HermitianForm) -> np.ndarray:
    """The first variation dPsi along the 18 directions of `delta_basis`, from one pass."""
    c = _gradient_pairings(alg, nij, h)
    return np.concatenate([c.real.ravel(), -c.imag.ravel()])


# ---------------------------------------------------------------------------
# Criticality
# ---------------------------------------------------------------------------

class CriticalityReport(NamedTuple):
    verdict: str                 # "critical" | "non-critical" | "degenerate"
    residual: float              # `offshape_residual`: the (2,1)+(1,2) part of d omega, relative


def criticality_residual_vector(alg: CoframeAlgebra, J: AlmostComplexStructure):
    """`_residual_kernel` at J: the real residual vector (None without a positive normalizable
    candidate, which the optimizer treats as a rejected step), J's frame and the
    `ConformalStack`, which holds the candidate, its positivity and normalized omega, and what
    `_jacobian` differentiates.  A positive candidate with a non-finite |P|^2 raises, as in
    `conformal_solve`."""
    vec, valid, theta, V, st = _residual_kernel(alg, J.matrix)
    st.check_norm()
    return (vec if valid else None), ComplexFrame(J, theta, V), st


def _residual_kernel(alg: CoframeAlgebra, Jm: np.ndarray):
    """Residual vectors, [Re; Im] of the `split_30` off-shape part of d omega, at J matrices Jm
    that pass the gates of `AlmostComplexStructure`, with the mask where they count (a positive
    normalizable candidate), the frames (theta, V) and the `ConformalStack`; leading axes stack."""
    theta, V = default_frame_coords(Jm)
    st = conformal_stack(nijenhuis_matrices(alg, Jm, theta, V), theta)
    off = split_30(matvec(alg.d_matrices[2], st.normalized_omega), theta, V)[1]
    return np.concatenate([off.real, off.imag], axis=-1), st.normalizable, theta, V, st


def _top_tangent(rows, drows) -> np.ndarray:
    """The tangent of the trilinear `theta_top_coeffs` at rows along drows (leading axis)."""
    slots = np.eye(3, dtype=bool)[:, None, :, None]
    return theta_top_coeffs(np.where(slots, drows, rows)).sum(axis=0)


def _jacobian(alg: CoframeAlgebra, fr: ComplexFrame, st: ConformalStack) -> np.ndarray:
    """The 40 x 18 Jacobian of `_residual_kernel` along `delta_basis` at t = 0, from the frame and
    stack of the point's `criticality_residual_vector`: each step of the kernel by the product
    rule, with no new frame, N*, QR or SVD.  The residual does not change under a unitary
    change of frame, so the smooth Loewdin frame of P^{1,0}(t) theta^T serves for the SVD one."""
    theta, V, Jm, F = fr.theta_coeffs, fr.v_coords, fr.J.matrix, fr.vectors
    Z = (V @ _DELTAS) @ np.conj(theta)
    dJ = 2.0 * (Z.imag - Jm @ Z.real)  # Re((B'D - J B') Theta), B' = [conj(V delta), V delta]
    X = -0.5j * theta @ dJ  # rows theta (P^{1,0})'^T, less half the Gram's tangent (Loewdin)
    G = X @ np.conj(theta).T
    dtheta = X - 0.5 * (G + np.conj(np.swapaxes(G, -2, -1))) @ theta
    dV = -(F @ np.concatenate([dtheta, np.conj(dtheta)], axis=-2) @ F)[..., :3]
    q01, K = type_projectors(Jm)[1].T, bracket_vectors(alg, V, V)  # M = (conj theta q01 K)^T
    dN = 0.5j * dJ @ K + q01 @ (2.0 * bracket_vectors(alg, V, dV))
    dM = np.swapaxes(np.conj(dtheta) @ q01 @ K + np.conj(theta) @ dN, -2, -1)
    # the candidate, det H' = det H tr(H^-1 H'), the |P|^2 gauge and omega = n2 H
    H, n2, M = st.hermitian, st.n2, st.M
    dH = candidate_tangent(st, dM)
    c = rho_skew_coefficient(1j * H, M)
    dc = rho_skew_coefficient(1j * dH, M) + rho_skew_coefficient(1j * H, dM)
    dn2 = n2 * (2.0 * (dc / c).real - np.sum(np.linalg.inv(H).T * dH, axis=(-2, -1)).real)
    W, dW = 1j * n2 * H, 1j * (dn2[:, None, None] * H + n2 * dH)
    Y = np.swapaxes(dtheta, -2, -1) @ W @ np.conj(theta)
    Y = Y + theta.T @ (W @ np.conj(dtheta) + dW @ np.conj(theta))
    d2 = alg.d_matrices[2].real
    phi, dphi = d2 @ st.normalized_omega, two_form_coeffs(2.0 * Y.real) @ d2.T
    # `split_30` of the real d omega, whose minors and theta^123 are trilinear
    minors, top = theta_top_coeffs(V.T), theta_top_coeffs(theta)
    dc30 = dphi @ minors + _top_tangent(V.T, np.swapaxes(dV, -2, -1)) @ phi
    doff = dphi - 2.0 * (dc30[:, None] * top + (phi @ minors) * _top_tangent(theta, dtheta)).real
    # C-ordered, which fixes the summation order of jac.T @ jac; the real residual's Im half is 0
    return np.ascontiguousarray(np.concatenate([doff.T, np.zeros_like(doff.T)]))


def criticality_test(alg: CoframeAlgebra, nij: NijenhuisTensor,
                     h: HermitianForm | None = None) -> CriticalityReport:
    """Extremality criterion at nij's J: d omega confined to bidegrees (3,0) + (0,3).

    h is the omega the caller picked and gated; None when it has none.  With a
    degenerate Nijenhuis tensor the functional vanishes identically on invariant
    deformations; that case is reported as degenerate and excluded from the
    equivalence contract.
    """
    if not nij.nondegenerate:
        return CriticalityReport("degenerate", 0.0)
    if h is None:
        raise ValueError("no positive Hermitian candidate omega at this structure")
    residual = offshape_residual(alg, h.read_in(nij.frame))[0]
    verdict = "critical" if within(residual, "shape") else "non-critical"
    return CriticalityReport(verdict, residual)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

class IterationRecord(NamedTuple):
    """What one Gauss-Newton iteration did; deterministic, no timings."""

    objective: float            # after the iteration
    mu: float                   # damping after the iteration
    step_norm: float | None     # |accepted step| in the 18 real parameters; None if none was
    rejected_trials: int        # damped trials rejected
    kick: float | None          # magnitude of the accepted kick; None without one
    residual_evals: int         # structures evaluated: the trials and kicks in the working region


class FindCriticalResult(NamedTuple):
    J: AlmostComplexStructure
    converged: bool
    iterations: int
    trace: Sequence[float] = ()
    form: HermitianForm | None = None   # the gated omega, on convergence
    suite: NkSuiteReport | None = None
    reason: str = ""
    records: Sequence[IterationRecord] = ()
    psi_gradient_max_abs: float | None = None   # the analytic certificate, on convergence
    psi: float | None = None                    # the volume density of J, on convergence


def _objective(vec) -> float:
    return float(vec @ vec)


def _trial(alg: CoframeAlgebra, J: AlmostComplexStructure, frame: ComplexFrame,
           params: np.ndarray, norm_cap: float, R: float):
    """Try the step of 18 real parameters from J against the objective R.

    Returns ((J', vector, frame, stack, objective) or None, whether the residual
    was evaluated).  None rejects the step: it leaves the chart or the working
    region (tested before the residual is paid for), finds no normalizable
    candidate, or does not strictly lower R.
    """
    try:
        Jtry = deform_J(J, Deformation.from_real_params(params), 1.0, frame=frame)
    except ValueError:
        return None, False
    if np.linalg.norm(Jtry.matrix, 2) > norm_cap:
        return None, False  # left the working region
    try:
        vec, fr, st = criticality_residual_vector(alg, Jtry)
    except ValueError:
        return None, True
    if vec is None or not _objective(vec) < R:
        return None, True
    return (Jtry, vec, fr, st, _objective(vec)), True


def find_critical(alg: CoframeAlgebra, J0: AlmostComplexStructure, max_iter: int = 100,
                  seed: int = 0) -> FindCriticalResult:
    """Damped Gauss-Newton minimization of the squared criticality residual.

    Steps are taken in the 18-parameter graph chart recentered at each
    iterate; steps that degenerate the tensor, lose positivity of the
    candidate metric, or run the structure out of the working region are
    rejected and the damping increased.  The accepted trace is monotone by
    construction.  If the local model stalls above tolerance, a bounded set
    of seeded kick directions is probed and a kick is accepted only when it
    strictly lowers the objective.  Each iteration leaves an `IterationRecord`.

    Success is gated on the equivalence suite: a vanishing residual reached
    by escaping the compatibility domain (the normalization gauge can
    collapse the residual on structures with no critical point) is reported
    as a failure, never as a solution; the suite reads the stack's own omega
    (`ConformalStack.form`).  A solution also carries the largest analytic psi-gradient
    component, an independent certificate of criticality, and psi, both from the N*
    tensor the suite reads: the accepted point's, not built again.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    if seed < 0:  # here, not at the first kick after the whole search has run
        raise ValueError(f"seed must be >= 0, got {seed}")
    vec, fr, st = criticality_residual_vector(alg, J0)
    if vec is None:
        return FindCriticalResult(J0, False, 0, [], None,
                                  reason="no positive candidate omega at start")
    J = J0
    R = _objective(vec)
    trace = [R]
    records = []
    mu = 1e-4
    rng = None  # numpy.random is imported at the first kick, if one comes
    iterations = 0
    reason = "converged"
    norm_cap = 100.0 * max(1.0, np.linalg.norm(J0.matrix, 2))
    while R > INNER_TARGET and iterations < max_iter:
        jac = _jacobian(alg, fr, st)
        evals, rejected = 0, 0
        step_norm = kick = None
        for _ in range(40):
            try:
                step = np.linalg.solve(jac.T @ jac + mu * np.eye(18), -jac.T @ vec)
            except np.linalg.LinAlgError:
                mu *= 4.0
                rejected += 1
                continue
            got, evaluated = _trial(alg, J, fr, step, norm_cap, R)
            evals += evaluated
            if got is not None:
                J, vec, fr, st, R = got
                mu = max(mu / 3.0, 1e-14)
                step_norm = float(np.linalg.norm(step))
                break
            mu *= 4.0
            rejected += 1
        if step_norm is None:
            # bounded deterministic kicks; accepted only on strict descent
            if rng is None:
                rng = np.random.default_rng(seed)
            for mag in (0.02, 0.05, 0.1, 0.2):
                for _ in range(6):
                    params = mag * rng.standard_normal(18)
                    got, evaluated = _trial(alg, J, fr, params, norm_cap, R)
                    evals += evaluated
                    if got is not None:
                        J, vec, fr, st, R = got
                        step_norm, kick = float(np.linalg.norm(params)), mag
                        break
                if kick is not None:
                    break
        records.append(IterationRecord(R, mu, step_norm, rejected, kick, evals))
        if step_norm is None:
            reason = "trust region exhausted above tolerance"
            break
        trace.append(R)
        iterations += 1
    converged = within(R, "objective")
    if converged and reason == "converged" and R > INNER_TARGET and iterations >= max_iter:
        reason = "max iterations reached after convergence"
    if not converged and reason == "converged":
        reason = "max iterations reached"
    form = suite = gradient_max = psi = None
    if converged:
        from .nk_su3 import nk_equivalence_suite  # only a converged search loads it
        form = st.form(fr)  # normalizable, as every accepted point is
        nij = NijenhuisTensor(fr, st.M)  # the accepted point's N*, built once
        suite = nk_equivalence_suite(alg, nij, form)
        if suite.all_true:
            gradient_max = float(np.max(np.abs(psi_gradient(alg, nij, form))))
            psi = volume_form(nij).psi
        else:
            converged, reason = False, ("residual vanished outside the compatibility domain: "
                                        "the equivalence suite rejects the candidate")
    return FindCriticalResult(J, converged, iterations, trace, form, suite, reason,
                              records, gradient_max, psi)
