"""The positive Hermitian form, skew-torsion criterion, conformal recovery of omega, Alt_12.

An almost Hermitian structure admits a Hermitian connection with totally
antisymmetric torsion exactly when C = A M^T is scalar, for the trilinear form

    rho(v_a, v_b, v_c) = omega(N(v_a, v_b), v_c) = -eps_dab C[c, d]

of omega's frame block A and the N* matrix M on T^{1,0}, whose skew part is -tr(C)/3 eps_abc.
omega, a positive real (1,1)-form, is gated once as a `HermitianForm`, which reads it in the
(1,0) frame of the N* tensor: its frame block A = omega(v_a, conj v_b) = iH, whose det H every
|(3,0)-form|^2 below uses, and its metric 2 Re(theta^T H conj theta), the one positivity
decision, which the conformal solve hands out with its omega (`ConformalStack.form`).
Everything here is exact finite-dimensional linear algebra in that frame.
"""

from __future__ import annotations

from copy import copy
from dataclasses import InitVar, dataclass, field
from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

from .multilinear import Form, Metric, _wedge_tensor, definite_sign, matvec, two_form_coeffs
from .frame_manifold import CoframeAlgebra, d_invariant
from .acs import AlmostComplexStructure, ComplexFrame, is_type_11, split_30, type_projectors
from .conventions import HERMITIAN_30_NORM_COEF, TOLERANCES, within
from .nijenhuis import NijenhuisTensor, rho_skew_coefficient

__all__ = [
    "Alt12Report",
    "ConformalStack",
    "HermitianForm",
    "TorsionCriterionReport",
    "alt12_analysis",
    "candidate_tangent",
    "conformal_solve",
    "conformal_stack",
    "hermitian_metric",
    "norm30_sq",
    "offshape_residual",
    "torsion_criterion",
]


def _metric_matrix(H, theta) -> np.ndarray:
    """omega(., J.) of i sum H_ab theta^a ^ conj theta^b for the (1,0) coframe rows theta:
    2 Re Y, Y = theta^T H conj theta, as Re(Y + Y^T), exactly symmetric; leading axes broadcast."""
    Y = np.swapaxes(theta, -2, -1) @ H @ np.conj(theta)
    return (Y + np.swapaxes(Y, -2, -1)).real


def hermitian_metric(frame: ComplexFrame, g: np.ndarray) -> Metric:
    """The metric g = omega(., J.) (`_metric_matrix`) for the J of frame through the one gate of
    `Metric`, oriented by the sign of its i det Theta (`ComplexFrame.volume`); raises naming it."""
    try:
        return Metric(g, orientation=1 if frame.volume > 0 else -1)
    except ValueError as ex:
        raise ValueError(f"omega not positive: {ex}") from ex


@dataclass(frozen=True)
class HermitianForm:
    """A positive real (1,1)-form omega for the J of a (1,0) frame, read there once: its block
    A = omega(v_a, conj v_b) = iH, det H and J-oriented metric g (`hermitian_metric`).  An omega
    from outside must pass `is_type_11` and be real; given (H, g) of the conformal solve instead,
    omega = i sum H_ab theta^a ^ conj theta^b is (1,1) by construction, and `Metric` on those bits
    of g is the one gate.  omega^3 / 6 = i det H theta^123 ^ conj theta^123 orients alike."""

    frame: ComplexFrame
    omega: Form | None = None
    metric: Metric = field(init=False)
    block: np.ndarray = field(init=False)
    det: float = field(init=False)
    H: InitVar[np.ndarray | None] = None
    g: InitVar[np.ndarray | None] = None

    def __post_init__(self, H, g):
        if H is None:
            if not (is_type_11(self.frame.J, self.omega) and self.omega.is_real()):
                raise ValueError("omega must be a real (1,1)-form")
            H = -1j * self.frame.components(self.omega)[:3, 3:]
            g = _metric_matrix(H, self.frame.theta_coeffs)
        else:
            omega = Form(6, 2, _hermitian_form_coeffs(self.frame.theta_coeffs, H))
            object.__setattr__(self, "omega", omega)
        for name, value in (("metric", hermitian_metric(self.frame, g)), ("block", 1j * H),
                            ("det", np.linalg.det(H).real)):
            object.__setattr__(self, name, value)

    def scaled(self, s: float) -> HermitianForm:
        """s omega for s > 0, without a second gate (copies skip `__post_init__`): the metric
        is s g, oriented alike, the block s A and det H becomes s^3 det H."""
        if not s > 0:
            raise ValueError(f"omega scales by a positive number only, got {s:g}")
        out, metric = copy(self), copy(self.metric)
        object.__setattr__(metric, "matrix", s * self.metric.matrix)
        metric.matrix.flags.writeable = False
        for name, value in (("omega", s * self.omega), ("metric", metric),
                            ("block", s * self.block), ("det", s ** 3 * self.det)):
            object.__setattr__(out, name, value)
        return out

    def read_in(self, fr: ComplexFrame) -> HermitianForm:
        """self, once fr is the frame it was read in, whose theta also fixes J."""
        if fr is not self.frame and not np.array_equal(fr.theta_coeffs, self.frame.theta_coeffs):
            raise ValueError("omega was gated for another J or frame")
        return self


def offshape_residual(alg: CoframeAlgebra, h: HermitianForm) -> tuple[float, complex, Form]:
    """|(2,1)+(1,2) part of d omega| / max(1, |d omega|), the coefficient c of its (3,0) part
    c theta^123 and d omega, split in h's frame by `split_30`, for the verdicts."""
    domega = d_invariant(alg, h.omega)
    c, off = split_30(domega.coeffs, h.frame.theta_coeffs, h.frame.v_coords)
    return float(np.max(np.abs(off))) / max(1.0, domega.norm()), c, domega


def norm30_sq(c, det):
    """|P|^2 = |c|^2 / (8 det H) of P = c theta^123 against omega = i sum H_ab theta^a ^ conj theta^b,
    whose frame block omega(v_a, conj v_b) is iH.  This is the definition HERMITIAN_30_NORM_COEF
    * (P ^ conj P) / (omega^3 / 6), calibrated so the flat model dz1^dz2^dz3 against (i/2) sum
    dz^dzbar gives 1, as omega^3 / 6 = i det H theta^123 ^ conj theta^123.  Leading axes stack;
    the value is not finite where |c|^2 overflows or det H is 0, which the callers gate."""
    return (HERMITIAN_30_NORM_COEF / 1j).real * np.abs(c) ** 2 / det


def _traceless(C: np.ndarray) -> np.ndarray:
    """C - tr(C)/3 I: the non-skew part of rho = -eps_dab C[c, d] is -eps_dab C_0[c, d], which
    holds each entry of C_0 twice with opposite signs.  Leading axes stack."""
    return C - (np.trace(C, axis1=-2, axis2=-1) / 3.0)[..., None, None] * np.eye(3)


class TorsionCriterionReport(NamedTuple):
    skewness_residual: float        # max |non-skew part of rho| = max |traceless part of C|
    rho_norm: float                 # max |rho| = max |C|
    admits_connection: bool


def torsion_criterion(nij: NijenhuisTensor, h: HermitianForm) -> TorsionCriterionReport:
    """Decide existence of a Hermitian connection with skew torsion for h, in nij's frame."""
    C = h.read_in(nij.frame).block @ nij.matrix.T
    rho_norm = float(np.max(np.abs(C)))
    residual = float(np.max(np.abs(_traceless(C))))
    return TorsionCriterionReport(
        skewness_residual=residual,
        rho_norm=rho_norm,
        admits_connection=within(residual, "skew_torsion", max(rho_norm, 1e-300)),
    )


def _hermitian_units() -> np.ndarray:
    """A basis h_1..h_9 of the Hermitian 3x3 matrices, orthonormal under tr(A B^*): E_aa,
    then per a < b the pair (E_ab + E_ba)/sqrt 2, i (E_ab - E_ba)/sqrt 2.  Its coordinates
    measure H by |H|_F, which a unitary change of the (1,0) frame keeps."""
    E = np.eye(3)
    out = [np.outer(E[a], E[a]) for a in range(3)]
    for a, b in ((0, 1), (0, 2), (1, 2)):
        S = np.outer(E[a], E[b]) / np.sqrt(2.0)
        out += [S + S.T, 1j * (S - S.T)]
    return np.array(out, dtype=np.complex128)


_HERMITIAN_UNITS = _hermitian_units()
_CANONICAL = np.r_[np.ones(3), np.zeros(6)]  # i sum theta^a ^ conj theta^a in that basis


def _hermitian_form_coeffs(theta: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Coefficients of the real (1,1)-form i sum H_ab theta^a ^ conj theta^b, H Hermitian.

    Its frame coordinates are X = [[0, iH], [-iH^T, 0]] on Theta = [theta; conj theta],
    so its coefficient matrix Theta^T X Theta is Y - Y^T = 2 Re Y with
    Y = theta^T (iH) conj theta.  Leading axes of theta and H broadcast.
    """
    Y = np.swapaxes(theta, -2, -1) @ (1j * H) @ np.conj(theta)
    return two_form_coeffs(2.0 * Y.real)


def _hermitian_basis(T: np.ndarray) -> np.ndarray:
    """Columns: the real (1,1)-forms i sum h_ab theta^a ^ conj theta^b, h = h_1..h_9,
    for the coframe rows T = [theta; conj theta] (`ComplexFrame.coframe`)."""
    return _hermitian_form_coeffs(T[:3], _HERMITIAN_UNITS).T


def _conformal_system(M: np.ndarray) -> np.ndarray:
    """The real 18 x 9 system of the conformal solve for the N* matrix M.

    Column k is sqrt 2 [Re; Im] of the traceless part of C(i h_k) = i h_k M^T, whose norm is
    that of the non-skew part of rho (`_traceless`).  Leading axes of M stack.
    """
    C0 = _traceless(1j * _HERMITIAN_UNITS @ np.swapaxes(M, -2, -1)[..., None, :, :])
    C0 = np.sqrt(2.0) * C0.reshape(C0.shape[:-2] + (9,))
    return np.swapaxes(np.concatenate([C0.real, C0.imag], axis=-1), -2, -1)


@lru_cache(maxsize=None)
def _conformal_map() -> np.ndarray:
    """`_conformal_system` as the 18 x 162 real-linear map of the entries [Re M, Im M]."""
    units = np.eye(9).reshape(9, 3, 3)
    return _conformal_system(np.concatenate([units, 1j * units])).reshape(18, 162)


def _orient_positive(H, theta):
    """Flip the Hermitian matrices H that `definite_sign` calls negative; return them, the metric
    g of i sum H_ab theta^a ^ conj theta^b (`_metric_matrix`), whether g passes the gate of
    `Metric`, their determinants and the flips; leading axes of H and theta broadcast."""
    eigs = np.linalg.eigvalsh(H)
    flip = np.where(definite_sign(eigs) < 0, -1.0, 1.0)
    H = flip[..., None, None] * H
    g = _metric_matrix(H, theta)
    positive = definite_sign(np.linalg.eigvalsh(g)) == 1
    return H, g, positive, flip * np.prod(eigs, axis=-1), flip


class ConformalStack(NamedTuple):
    """The conformal solve for a stack of structures, as arrays over the leading axes.

    The solve runs in frame coordinates: a candidate is a Hermitian 3x3 matrix H,
    standing for the real (1,1)-form omega = i sum H_ab theta^a ^ conj theta^b.
    `positive` is the one positivity decision on omega: `definite_sign`, the gate of `Metric`,
    on the eigenvalues of its `metric` omega(., J.), which `form` hands to `Metric` as is.  The
    skew (3,0) part of omega(N(.,.),.) is c theta^123, c = -tr(i H M^T)/3 the `rho_skew_coefficient`
    of the frame block iH, so that |P|^2 = `norm30_sq`(c, det H): -c is the scalar part of
    C(iH) = iH M^T, and its traceless part the residual.  The least-squares candidate
    minimizes |traceless part of C(iH)| / |H|_F: it depends on J alone.
    Every gate of the solve is a mask here; `conformal_solve` is the case
    without leading axes, and the caller builds the N* matrices it is solved from.
    """

    theta: np.ndarray            # the (1,0) coframe rows [..., 3, 6]
    singular_values: np.ndarray  # [..., 9], descending
    null: np.ndarray             # [..., 9]: singular values cut as the strict nullspace
    hermitian: np.ndarray        # H of the sign-fixed candidate [..., 3, 3]
    metric: np.ndarray           # its metric g = omega(., J.) [..., 6, 6]
    positive: np.ndarray         # the candidate passes the definite gate
    n2: np.ndarray               # |P|^2 of the candidate, before its gates
    M: np.ndarray                # the N* matrices [..., 3, 3]
    vt: np.ndarray               # right singular vectors of the system, as rows [..., 9, 9]
    flip: np.ndarray             # +-1 that fixed the candidate's sign
    projected: np.ndarray        # the candidate is the canonical direction projected on `null`

    @property
    def solution_dimension(self) -> np.ndarray:
        """Dimension of the strict nullspace."""
        return self.null.sum(axis=-1)

    @property
    def candidate_residual(self) -> np.ndarray:
        """The smallest singular value relative to the largest; 0 where all vanish."""
        return self.singular_values[..., -1] / np.maximum(self.singular_values[..., 0], 1e-300)

    @property
    def normalizable(self) -> np.ndarray:
        """Positive candidates whose |P|^2 is finite and > 0."""
        return self.positive & np.isfinite(self.n2) & (self.n2 > 0)

    @property
    def normalized_omega(self) -> np.ndarray:
        """Coefficients of the candidate scaled to |rho|_omega = 1; zero where not normalizable."""
        scale = np.where(self.normalizable, self.n2, 0.0)[..., None, None]
        return _hermitian_form_coeffs(self.theta, scale * self.hermitian)

    def form(self, frame: ComplexFrame) -> HermitianForm | None:
        """One structure's omega in the frame of its theta, gated on `metric`: normalized to
        |rho|_omega = 1 where normalizable, else the positive candidate, else None."""
        if not self.positive:
            return None
        h = HermitianForm(frame, H=self.hermitian, g=self.metric)
        return h.scaled(float(self.n2)) if self.normalizable else h

    def check_norm(self) -> None:
        """Raise on a positive candidate with non-finite |P|^2 (`norm30_sq`): the stack masks it."""
        if self.positive and not np.isfinite(self.n2):
            raise ValueError(f"norm computation returned a non-real or non-finite value {self.n2}")


def conformal_stack(M: np.ndarray, theta: np.ndarray) -> ConformalStack:
    """The conformal solve for bracket-route N* matrices M that the caller built in the
    (1,0) coframes with rows theta (`nijenhuis_matrices`).

    Leading axes stack.  The candidate is the canonical positive direction
    projected onto the strict nullspace when that has dimension > 1 and stays
    positive (covers large solution spaces such as the integrable case),
    otherwise the least-squares singular direction.
    """
    # one row per structure, so that a stack and a single structure share the
    # summation order, and so the rounding, of this product
    entries = np.concatenate([M.real, M.imag], axis=-2).reshape(M.shape[:-2] + (1, 18))
    system = (entries @ _conformal_map()).reshape(M.shape[:-2] + (18, 9))
    _, s, vt = np.linalg.svd(system, full_matrices=False)
    null = s <= TOLERANCES["nullspace"] * np.maximum(s[..., :1], 1e-300)

    proj = matvec(np.swapaxes(vt, -2, -1), null * matvec(vt, _CANONICAL))
    pn = np.linalg.norm(proj, axis=-1)
    # the least-squares direction and the projected canonical one, side by side
    x = np.stack([vt[..., -1, :], proj / np.maximum(pn, 1e-300)[..., None]], axis=-2)
    H, g, positive, det, flip = _orient_positive(np.tensordot(x, _HERMITIAN_UNITS, axes=(-1, 0)),
                                                 theta[..., None, :, :])
    use_alt = (null.sum(axis=-1) > 1) & (pn > TOLERANCES["nullspace"]) & positive[..., 1]
    H = np.where(use_alt[..., None, None], H[..., 1, :, :], H[..., 0, :, :])
    g = np.where(use_alt[..., None, None], g[..., 1, :, :], g[..., 0, :, :])
    det = np.where(use_alt, det[..., 1], det[..., 0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        n2 = norm30_sq(rho_skew_coefficient(1j * H, M), det)
    return ConformalStack(theta=theta, singular_values=s, null=null, hermitian=H, metric=g,
                          positive=positive[..., 0] | use_alt, n2=n2, M=M, vt=vt,
                          flip=np.where(use_alt, flip[..., 1], flip[..., 0]), projected=use_alt)


def candidate_tangent(st: ConformalStack, dM: np.ndarray) -> np.ndarray:
    """Tangents H' of one structure's candidate along tangents dM of its N* matrix (leading axis).

    The candidate x is the unit projection P c / |P c| onto a cluster K of right singular
    vectors v: the last one with c = v_9, or the strict nullspace with c canonical.  First-order
    perturbation of P against the squared singular values outside K gives, for G = A^T A,
    P' = sum_{k in K, j not in K} (v_j v_k^T + v_k v_j^T) v_j^T G' v_k / (s_k^2 - s_j^2)."""
    s2, vt, K = st.singular_values ** 2, st.vt, st.null if st.projected else np.arange(9) == 8
    G = _conformal_map().reshape(18, 18, 9)
    AV = np.tensordot(np.concatenate([st.M.real, st.M.imag]).ravel(), G, axes=1) @ vt.T
    W = np.swapaxes(G @ vt.T, -2, -1) @ AV  # [e, j, k] = (G_e v_j) . (A v_k)
    entries = np.concatenate([dM.real, dM.imag], axis=-2).reshape(-1, 18)
    dG = (entries @ (W + np.swapaxes(W, -2, -1)).reshape(18, 81)).reshape(-1, 9, 9)
    a = vt @ _CANONICAL if st.projected else np.eye(9)[8]  # c in the basis v
    with np.errstate(divide="ignore", invalid="ignore"):
        R = np.where(~K[:, None] & K[None, :], dG / (s2[None, :] - s2[:, None]), 0.0)
    y, na = np.where(K, a, 0.0), np.linalg.norm(a[K])
    z = (R @ a + a @ R) / na  # x' = (1 - x x^T) P' c / |P c|, x = P c / |P c|
    z -= (z @ y)[:, None] * y / na ** 2
    return st.flip * np.tensordot(z @ vt, _HERMITIAN_UNITS, axes=(-1, 0))


def conformal_solve(nij: NijenhuisTensor) -> ConformalStack:
    """Solve {a real (1,1): C(a) is totally antisymmetric} for the J of the N* tensor nij that the
    caller built: the `ConformalStack` without leading axes, which raises on a positive candidate
    with non-finite |P|^2.  Its least-squares candidate keeps the solver usable along
    optimization paths where the structure is only approximately compatible."""
    st = conformal_stack(nij.matrix, nij.frame.theta_coeffs)
    st.check_norm()
    return st


# ---------------------------------------------------------------------------
# Alt_12 linear algebra
# ---------------------------------------------------------------------------

class Alt12Report(NamedTuple):
    rank_full: int          # on Lambda^1 (x) Lambda^2 (90-dim): must be 90
    rank_hermitian: int     # on Lambda^1 (x) Lambda^{1,1}_R (54-dim): must be 54
    span_with_cokernel: int  # dim(image + embedded (2,1)+(1,2) 3-forms): must be 72
    target_dimension: int   # real dim of the (2,1)+(1,2) part: 72


def _alt12_matrix(n: int = 6) -> np.ndarray:
    """Alt over the first two slots: Lambda^1 (x) Lambda^2 -> Lambda^2 (x) Lambda^1.

    E2 takes 2-form coefficients to the full antisymmetric tensor A[x, y], so
    e^i (x) a becomes the tensor U = (Id (x) E2) and its image at x < y is
    U_xyz - U_yxz = ((E2^T (x) Id) U)[(x, y), z].
    """
    E2 = _wedge_tensor(n, 1, 1).reshape(comb(n, 2), n * n).T.real
    return np.kron(E2.T, np.eye(n)) @ np.kron(np.eye(n), E2)


def _tensor_projector_21_12(J: AlmostComplexStructure) -> np.ndarray:
    """Projector of Lambda^2 (x) Lambda^1 onto total bidegree (2,1)+(1,2): the identity less
    the only two products outside it, (2,0) (x) (1,0) and (0,2) (x) (0,1)."""
    n = J.dimension
    p10, p01 = type_projectors(J.matrix)
    return (np.eye(comb(n, 2) * n) - np.kron(J.bidegree_projector(2, 0), p10)
            - np.kron(J.bidegree_projector(0, 2), p01))


def alt12_analysis(J: AlmostComplexStructure) -> Alt12Report:
    """Exact integer ranks of the Alt_12 operator and its Hermitian restriction."""
    n = J.dimension
    M = _alt12_matrix(n)
    rank_full = int(np.linalg.matrix_rank(M, tol=TOLERANCES["rank"]))

    # domain basis of Lambda^1 (x) Lambda^{1,1}_R: e^i (x) the Hermitian basis
    Pi = _tensor_projector_21_12(J)
    A = Pi @ M @ np.kron(np.eye(n), _hermitian_basis(J.frame().coframe))  # complex 90 x 54
    A_real = np.vstack([A.real, A.imag])
    rank_herm = int(np.linalg.matrix_rank(A_real, tol=TOLERANCES["rank"]))

    # cokernel side: real 3-forms of bidegree (2,1)+(1,2), embedded as the
    # tensors phi(e_j, e_k, e_z), j < k, which the wedge tensor lists
    embed = _wedge_tensor(n, 2, 1).reshape(comb(n, 3), -1).T
    emb = embed @ (J.bidegree_projector(2, 1) + J.bidegree_projector(1, 2))
    span = np.hstack([A_real, np.vstack([emb.real, emb.imag])])
    span_rank = int(np.linalg.matrix_rank(span, tol=TOLERANCES["rank"]))

    # dimension of the real (2,1)+(1,2) part of the tensor target
    dim = n * comb(n, 2)
    fix = np.vstack([(Pi - np.eye(dim)).real, (Pi - np.eye(dim)).imag])
    target_dim = dim - int(np.linalg.matrix_rank(fix, tol=TOLERANCES["rank"]))
    return Alt12Report(rank_full=rank_full, rank_hermitian=rank_herm,
                       span_with_cokernel=span_rank, target_dimension=target_dim)
