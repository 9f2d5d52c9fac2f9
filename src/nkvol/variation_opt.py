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
the 18 real deformation parameters with a damped Gauss-Newton loop, all of
whose residuals come from one kernel: its central-difference Jacobian runs it
on 36 deformed structures (`criticality_residuals`), and its start point,
trials and kicks on one (`criticality_residual_vector`), which also gives the
next Jacobian's frame.  The residual is computed in frame coordinates: on a
(1,0) frame (theta, v) the (3,0) part of d omega is d omega(v_1, v_2, v_3)
theta^123, so the off-shape part is d omega minus that and its conjugate,
without the Lambda^3 projectors that `criticality_test` applies as the
independent check.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .multilinear import Form, contract, matvec, wedge_coeffs
from .frame_manifold import CoframeAlgebra
from .acs import (AlmostComplexStructure, ComplexFrame, acs_gates, default_frame_coords,
                  j_from_basis, theta_top_coeffs)
from .conventions import KAPPA_CONV, TOLERANCES, ZH_DUALITY_FACTOR, within
from .hermitian_torsion import HermitianForm, conformal_stack, norm30_sq, offshape_residual
from .nijenhuis import (NijenhuisTensor, nijenhuis_matrices, nijenhuis_via_brackets,
                        rho_skew_coefficient, volume_form)

if TYPE_CHECKING:
    from .nk_su3 import NkSuiteReport

__all__ = [
    "CriticalityReport",
    "Deformation",
    "FindCriticalResult",
    "IterationRecord",
    "criticality_residual_vector",
    "criticality_residuals",
    "criticality_test",
    "deform_J",
    "delta_basis",
    "find_critical",
    "psi_gradient",
    "psi_value",
]

JACOBIAN_FD_STEP = 1e-6   # central difference of the optimizer's Jacobian, per real parameter
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


def psi_value(alg: CoframeAlgebra, J: AlmostComplexStructure) -> float:
    """Density of the canonical volume form; zero iff the tensor degenerates."""
    return volume_form(nijenhuis_via_brackets(alg, J)).psi


def _unit_delta_forms(omega: Form, nij: NijenhuisTensor) -> np.ndarray:
    """Coefficients [a, b] of the (2,1)-forms (iota_{v_a} P) ^ conj theta^b of the unit deformations E_ab.

    T^{1,0} is identified with Lambda^{2,0} by contracting into the skew
    (3,0) part P of omega(N(.,.),.), normalized to |P|_omega = 1 and rescaled
    by the inverse duality factor so that on shape-equation solutions the
    Nijenhuis endomorphism itself is identified with the identity.
    """
    fr = nij.frame
    P = rho_skew_coefficient(fr.components(omega)[:3, 3:], nij.matrix) * fr.theta_top()
    if within(P.norm(), "vanishes"):
        raise ValueError("trilinear identification degenerate: skew part of rho vanishes")
    P = (1.0 / (ZH_DUALITY_FACTOR * np.sqrt(norm30_sq(omega, P)))) * P
    iota = np.array([contract(fr.v(a), P).coeffs for a in range(3)])
    return wedge_coeffs(iota[:, None, :], fr.coframe[None, 3:], 6, 2, 1)


def _gradient_pairings(alg: CoframeAlgebra, nij: NijenhuisTensor, h: HermitianForm) -> np.ndarray:
    """c[a, b] = KAPPA_CONV * 2 * density(Pi^{2,2} d(E_ab-form) ^ omega), oriented.

    The first variation is linear in delta: dPsi(delta) = Re sum_ab delta[a, b] c[a, b],
    with E_ab in the frame of nij, the N* tensor of J, and omega that of h.
    """
    J = nij.frame.J
    omega = h.omega_for(J)
    if not nij.nondegenerate:
        raise ValueError("gradient undefined: Nijenhuis tensor degenerate")
    Q = _unit_delta_forms(omega, nij)
    dd = matvec(J.bidegree_projector(2, 2), matvec(alg.d_matrices[3], Q))
    pairing = wedge_coeffs(dd, omega.coeffs, 6, 4, 2)[..., 0]
    return KAPPA_CONV * 2.0 * pairing * volume_form(nij).orientation


def psi_gradient(alg: CoframeAlgebra, nij: NijenhuisTensor, h: HermitianForm) -> np.ndarray:
    """The first variation dPsi along the 18 directions of `delta_basis`, from one pass."""
    c = _gradient_pairings(alg, nij, h)
    return np.concatenate([c.real.ravel(), -c.imag.ravel()])


# ---------------------------------------------------------------------------
# Criticality
# ---------------------------------------------------------------------------

class CriticalityReport(NamedTuple):
    verdict: str                 # "critical" | "non-critical" | "degenerate"
    residual: float              # sup-norm of the (2,1)+(1,2) part of d omega
    degenerate: bool
    form: HermitianForm | None


def criticality_residual_vector(alg: CoframeAlgebra, J: AlmostComplexStructure):
    """`_residual_kernel` at J: the real residual vector (None without a positive normalizable
    candidate, which the optimizer treats as a rejected step), J's frame, whether the
    candidate is positive, and the normalized omega (None with the vector).  A positive
    candidate with a non-finite |P|^2 raises, as in `conformal_solve`."""
    vec, valid, theta, V, st = _residual_kernel(alg, J.matrix, True)
    st.check_norm()
    omega = Form(6, 2, st.normalized_omega) if valid else None
    return (vec if valid else None), ComplexFrame(J, theta, V), bool(st.positive), omega


def _offshape(alg: CoframeAlgebra, theta: np.ndarray, V: np.ndarray,
              omega: np.ndarray) -> np.ndarray:
    """[Re; Im] of Pi^{2,1} d omega + Pi^{1,2} d omega from (1,0) frames (theta rows,
    V columns) and 2-form coefficients: d omega minus d omega(v_1, v_2, v_3) theta^123,
    read through the 3x3 minors of V, and minus its conjugate.  Leading axes stack."""
    dw = matvec(alg.d_matrices[2], omega)
    minors = theta_top_coeffs(np.swapaxes(V, -2, -1))  # v_1 ^ v_2 ^ v_3 as coefficients
    top = theta_top_coeffs(theta)
    off = (dw - np.sum(dw * minors, axis=-1)[..., None] * top
           - np.sum(dw * np.conj(minors), axis=-1)[..., None] * np.conj(top))
    return np.concatenate([off.real, off.imag], axis=-1)


def _residual_kernel(alg: CoframeAlgebra, Jm: np.ndarray, valid):
    """Residual vectors at J matrices Jm that pass the gates of `AlmostComplexStructure`, zero
    outside their mask: `valid` narrowed to a positive normalizable candidate.  With the
    mask come the frames (theta, V) and the `ConformalStack`; leading axes stack."""
    theta, V = default_frame_coords(Jm)
    st = conformal_stack(nijenhuis_matrices(alg, Jm, theta, V), theta)
    valid = valid & st.normalizable
    return np.where(valid[..., None], _offshape(alg, theta, V, st.normalized_omega), 0.0), valid, theta, V, st


def criticality_residuals(alg: CoframeAlgebra, J: AlmostComplexStructure, deltas: np.ndarray,
                          frame: ComplexFrame | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Residual vectors at the graph-chart deformations of J by a stack of delta matrices.

    Slice k is the vector of `criticality_residual_vector` at
    `deform_J(J, Deformation(deltas[k]), 1.0, frame)`, from the same `_residual_kernel`.
    Returns the vectors and a mask that is also False where the graph is not
    complementary or the chart's matrix fails the gates of `AlmostComplexStructure`;
    the vectors are zero there.
    """
    fr = frame if frame is not None else J.frame()
    Jm, _, valid = _graph_chart(fr.v_coords, deltas)
    valid = valid & acs_gates(Jm)[1]
    Jm = np.where(valid[..., None, None], Jm, J.matrix)  # a valid stand-in keeps every slice finite
    return _residual_kernel(alg, Jm, valid)[:2]


def criticality_test(alg: CoframeAlgebra, nij: NijenhuisTensor,
                     h: HermitianForm | None = None) -> CriticalityReport:
    """Extremality criterion at nij's J: d omega confined to bidegrees (3,0) + (0,3).

    h is the omega the caller picked and gated; None when it has none.  With a
    degenerate Nijenhuis tensor the functional vanishes identically on invariant
    deformations; that case is reported as degenerate and excluded from the
    equivalence contract.
    """
    if not nij.nondegenerate:
        return CriticalityReport("degenerate", 0.0, True, h)
    if h is None:
        raise ValueError("no positive Hermitian candidate omega at this structure")
    residual = offshape_residual(alg, h)[0]
    verdict = "critical" if within(residual, "shape") else "non-critical"
    return CriticalityReport(verdict, float(residual), False, h)


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
    residual_evals: int         # structures evaluated: the Jacobian's 36, then trials and kicks


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


def _objective(vec) -> float:
    return float(vec @ vec)


def _trial(alg: CoframeAlgebra, J: AlmostComplexStructure, frame: ComplexFrame,
           params: np.ndarray, norm_cap: float, R: float):
    """Try the step of 18 real parameters from J against the objective R.

    Returns ((J', vector, frame, omega, objective) or None, whether the residual
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
        vec, fr, _, omega = criticality_residual_vector(alg, Jtry)
    except ValueError:
        return None, True
    if vec is None or not _objective(vec) < R:
        return None, True
    return (Jtry, vec, fr, omega, _objective(vec)), True


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
    as a failure, never as a solution.  A solution also carries the largest
    analytic psi-gradient component, an independent certificate of criticality.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    if seed < 0:  # here, not at the first kick after the whole search has run
        raise ValueError(f"seed must be >= 0, got {seed}")
    vec, fr, _, omega = criticality_residual_vector(alg, J0)
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
    # central differences: +h and -h along each of the 18 real directions
    steps = JACOBIAN_FD_STEP * np.array([d.matrix for d in delta_basis()])
    fd_deltas = np.concatenate([steps, -steps])
    while R > INNER_TARGET and iterations < max_iter:
        vecs, valid = criticality_residuals(alg, J, fd_deltas, frame=fr)
        both = valid[:18] & valid[18:]  # a column with a rejected side stays zero
        jac = np.zeros((len(vec), 18))  # C-ordered: fixes the summation order of jac.T @ jac
        jac[:, both] = ((vecs[:18] - vecs[18:]) / (2.0 * JACOBIAN_FD_STEP))[both].T
        evals, rejected = len(fd_deltas), 0
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
                J, vec, fr, omega, R = got
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
                        J, vec, fr, omega, R = got
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
    form = suite = gradient_max = None
    if converged:
        from .nk_su3 import nk_equivalence_suite  # only a converged search loads it
        nij = nijenhuis_via_brackets(alg, J, frame=fr)
        form = HermitianForm(J, omega)
        suite = nk_equivalence_suite(alg, nij, form)
        if suite.all_true:
            gradient_max = float(np.max(np.abs(psi_gradient(alg, nij, form))))
        else:
            converged = False
            reason = ("residual vanished outside the compatibility domain: "
                      "the equivalence suite rejects the candidate")
    return FindCriticalResult(J, converged, iterations, trace, form, suite, reason,
                              records, gradient_max)
