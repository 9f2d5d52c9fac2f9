"""The positive Hermitian form, skew-torsion criterion, conformal recovery of omega, Alt_12.

An almost Hermitian structure admits a Hermitian connection with totally
antisymmetric torsion exactly when the trilinear form

    rho(x, y, z) = omega(N(x, y), z),      x, y, z in T^{1,0},

is skew-symmetric; omega, a positive real (1,1)-form, is gated once as a `HermitianForm`.
Everything here is exact finite-dimensional linear algebra in a chosen (1,0) frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

from .multilinear import (Form, Metric, _wedge_tensor, definite_sign, matvec, two_form_coeffs,
                          wedge_coeffs)
from .frame_manifold import CoframeAlgebra, d_invariant
from .acs import EPS3, AlmostComplexStructure, _omega_j, bidegree_project, is_pure_bidegree
from .conventions import HERMITIAN_30_NORM_COEF, TOLERANCES, within
from .nijenhuis import NijenhuisTensor, rho_skew_coefficient

__all__ = [
    "Alt12Report",
    "ConformalSolveReport",
    "ConformalStack",
    "HermitianForm",
    "TorsionCriterionReport",
    "alt12_analysis",
    "conformal_solve",
    "conformal_stack",
    "hermitian_metric",
    "norm30_sq",
    "offshape_residual",
    "torsion_criterion",
]


def _top_density(w: np.ndarray):
    """The e^{123456} coefficient of omega^3 / 6, for the coefficients w of omega."""
    return (1.0 / 6.0) * wedge_coeffs(wedge_coeffs(w, w, 6, 2, 2), w, 6, 4, 2)[0]


def hermitian_metric(J: AlmostComplexStructure, omega: Form) -> Metric:
    """g(X, Y) = omega(X, JY), oriented by omega^3, through the one gate of `Metric`; raises naming it."""
    try:
        return Metric(_omega_j(J.matrix, omega.coeffs),
                      orientation=1 if _top_density(omega.coeffs).real > 0 else -1)
    except ValueError as ex:
        raise ValueError(f"omega not positive: {ex}") from ex


@dataclass(frozen=True)
class HermitianForm:
    """A positive real (1,1)-form omega for J and its metric, J-oriented: the constructor is
    the one gate on omega, a (1,1)-and-real test, then `Metric`'s positivity gate."""

    J: AlmostComplexStructure
    omega: Form
    metric: Metric = field(init=False)

    def __post_init__(self):
        if not (is_pure_bidegree(self.J, self.omega, 1, 1) and self.omega.is_real()):
            raise ValueError("omega must be a real (1,1)-form")
        object.__setattr__(self, "metric", hermitian_metric(self.J, self.omega))

    def omega_for(self, J: AlmostComplexStructure) -> Form:
        """omega, once J is the structure it was gated for."""
        if J is not self.J and not np.array_equal(J.matrix, self.J.matrix):
            raise ValueError("omega was gated for another J")
        return self.omega


def offshape_residual(alg: CoframeAlgebra, h: HermitianForm) -> tuple[float, Form]:
    """|Pi^{2,1} d omega + Pi^{1,2} d omega| / max(1, |d omega|), and d omega.

    The extremality criterion and the shape of the structure equations both
    read this residual.
    """
    domega = d_invariant(alg, h.omega)
    off = bidegree_project(h.J, domega, 2, 1) + bidegree_project(h.J, domega, 1, 2)
    return off.norm() / max(1.0, domega.norm()), domega


def norm30_sq(omega: Form, p30: Form) -> float:
    """|P|^2 of a (3,0)-form against a positive (1,1)-form omega.

    Calibrated so the flat model dz1^dz2^dz3 against (i/2) sum dz^dzbar gives 1:
    |P|^2 = coef * (P ^ conj P) / (omega^3 / 6), coef = i/8.
    """
    dens = _top_density(omega.coeffs)
    if dens == 0:
        raise ValueError("degenerate omega: omega^3 = 0")
    val = HERMITIAN_30_NORM_COEF * wedge_coeffs(p30.coeffs, np.conj(p30.coeffs), 6, 3, 3)[0] / dens
    if not within(abs(val.imag), "real", max(1.0, abs(val))):
        raise ValueError(f"norm computation returned a non-real or non-finite value {val}")
    return float(val.real)


def c_map_trilinear(C: np.ndarray) -> np.ndarray:
    """Expand C-matrices into trilinear components T[a, b, c] = eps_{dab} C[c, d].

    The C-map of a (1,1)-form with frame block A (`rho_skew_coefficient`) is
    C = A M^T for the N* matrix M, and rho = omega(N(.,.),.) is -T(A M^T).
    Leading axes stack.
    """
    return np.einsum("dab,...cd->...abc", EPS3, C)


def _skew_part(rho: np.ndarray) -> np.ndarray:
    """Total antisymmetrization of tensors already skew in their first two slots."""
    return (rho + np.einsum("...bca->...abc", rho) + np.einsum("...cab->...abc", rho)) / 3.0


class TorsionCriterionReport(NamedTuple):
    rho: np.ndarray                 # full trilinear components in the frame
    lambda30_component: Form        # the (3,0)-form carried by the skew part
    skewness_residual: float        # norm of the non-skew complement
    rho_norm: float
    admits_connection: bool


def torsion_criterion(nij: NijenhuisTensor, h: HermitianForm) -> TorsionCriterionReport:
    """Decide existence of a Hermitian connection with skew torsion for h, in nij's frame."""
    fr, M = nij.frame, nij.matrix
    A = fr.components(h.omega_for(fr.J))[:3, 3:]
    rho = -c_map_trilinear(A @ M.T)
    complement = rho - _skew_part(rho)
    p30 = rho_skew_coefficient(A, M) * fr.theta_top()
    rho_norm = float(np.max(np.abs(rho)))
    residual = float(np.max(np.abs(complement)))
    return TorsionCriterionReport(
        rho=rho,
        lambda30_component=p30,
        skewness_residual=residual,
        rho_norm=rho_norm,
        admits_connection=within(residual, "skew_torsion", max(rho_norm, 1e-300)),
    )


class ConformalSolveReport(NamedTuple):
    singular_values: np.ndarray
    solution_dimension: int
    candidate: Form                  # least-squares direction (sign-fixed)
    candidate_positive: bool
    normalized_omega: Form | None    # candidate scaled to |rho|_omega = 1, if positive
    candidate_residual: float        # smallest singular value (relative)


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
    """The real 54 x 9 system of the conformal solve for the N* matrix M.

    Column k is the non-skew part of the trilinear of C(i h_k) = i h_k M^T.
    Leading axes of M stack.
    """
    T = c_map_trilinear(1j * _HERMITIAN_UNITS @ np.swapaxes(M, -2, -1)[..., None, :, :])
    complement = T - _skew_part(T)
    complement = complement.reshape(complement.shape[:-4] + (9, 27))
    return np.swapaxes(np.concatenate([complement.real, complement.imag], axis=-1), -2, -1)


@lru_cache(maxsize=None)
def _conformal_map() -> np.ndarray:
    """`_conformal_system` as the 18 x 486 real-linear map of the entries [Re M, Im M]."""
    units = np.eye(9).reshape(9, 3, 3)
    return _conformal_system(np.concatenate([units, 1j * units])).reshape(18, 486)


def _orient_positive(H):
    """Flip the Hermitian matrices H that `definite_sign` calls negative; return them, whether
    that gate calls them definite, and their determinants.  Leading axes stack.  (The
    metric of i sum H_ab theta^a ^ conj theta^b pairs v_a with conj v_b to H_ab.)"""
    eigs = np.linalg.eigvalsh(H)
    sign = definite_sign(eigs)
    flip = np.where(sign < 0, -1.0, 1.0)
    return flip[..., None, None] * H, sign != 0, flip * np.prod(eigs, axis=-1)


class ConformalStack(NamedTuple):
    """The conformal solve for a stack of structures, as arrays over the leading axes.

    The solve runs in frame coordinates: a candidate is a Hermitian 3x3 matrix H,
    standing for the real (1,1)-form omega = i sum H_ab theta^a ^ conj theta^b.
    omega is positive iff H is: `positive` applies `definite_sign`, the gate of `Metric`,
    to H.  (A candidate is either well inside that gate on H and on the metric of omega,
    or rank-deficient to rounding on both.)  The skew (3,0) part of
    omega(N(.,.),.) is c theta^123 with c = -tr(i H M^T)/3, the
    `rho_skew_coefficient` of the frame block iH, so that |P|^2 = |c|^2 / (8 det H).
    The least-squares candidate minimizes |non-skew part of C(iH)| / |H|_F: it depends on J alone.
    Every gate of the solve is a mask here; `conformal_solve` is the case
    without leading axes, and the caller builds the N* matrices it is solved from.
    """

    theta: np.ndarray            # the (1,0) coframe rows [..., 3, 6]
    singular_values: np.ndarray  # [..., 9], descending
    null: np.ndarray             # [..., 9]: singular values cut as the strict nullspace
    hermitian: np.ndarray        # H of the sign-fixed candidate [..., 3, 3]
    positive: np.ndarray         # the candidate passes the definite gate
    n2: np.ndarray               # |P|^2 of the candidate, before its gates

    @property
    def candidate(self) -> np.ndarray:
        """Coefficients of the sign-fixed candidate [..., 15]."""
        return _hermitian_form_coeffs(self.theta, self.hermitian)

    @property
    def normalizable(self) -> np.ndarray:
        """Positive candidates whose |P|^2 is finite and > 0."""
        return self.positive & np.isfinite(self.n2) & (self.n2 > 0)

    @property
    def normalized_omega(self) -> np.ndarray:
        """Coefficients of the candidate scaled to |rho|_omega = 1; zero where not normalizable."""
        scale = np.where(self.normalizable, self.n2, 0.0)[..., None, None]
        return _hermitian_form_coeffs(self.theta, scale * self.hermitian)

    def check_norm(self) -> None:
        """Raise on a positive candidate with non-finite |P|^2: the `norm30_sq` gate the stack masks."""
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
    system = (entries @ _conformal_map()).reshape(M.shape[:-2] + (54, 9))
    _, s, vt = np.linalg.svd(np.linalg.qr(system, mode="r"))  # no 54 x 9 left vectors
    null = s <= TOLERANCES["nullspace"] * np.maximum(s[..., :1], 1e-300)

    canonical = np.zeros(9)
    canonical[:3] = 1.0  # i sum theta^a ^ conj theta^a in the hermitian basis
    proj = matvec(np.swapaxes(vt, -2, -1), null * matvec(vt, canonical))
    pn = np.linalg.norm(proj, axis=-1)
    # the least-squares direction and the projected canonical one, side by side
    x = np.stack([vt[..., -1, :], proj / np.maximum(pn, 1e-300)[..., None]], axis=-2)
    H, definite, det = _orient_positive(np.tensordot(x, _HERMITIAN_UNITS, axes=(-1, 0)))
    use_alt = (null.sum(axis=-1) > 1) & (pn > TOLERANCES["nullspace"]) & definite[..., 1]
    H = np.where(use_alt[..., None, None], H[..., 1, :, :], H[..., 0, :, :])
    det = np.where(use_alt, det[..., 1], det[..., 0])
    c = rho_skew_coefficient(1j * H, M)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        n2 = np.abs(c) ** 2 / (8.0 * det)
    return ConformalStack(theta=theta, singular_values=s, null=null, hermitian=H,
                          positive=definite[..., 0] | use_alt, n2=n2)


def conformal_solve(nij: NijenhuisTensor) -> ConformalSolveReport:
    """Solve {a real (1,1): C(a) is totally antisymmetric} and report positivity.

    nij is the N* tensor of J that the caller built.  The strict nullspace is cut at
    the `nullspace` tolerance relative to the largest singular value; independently,
    the least-squares direction (the smallest singular vector) is always reported,
    which keeps the solver usable along optimization paths where the structure is
    only approximately compatible.
    """
    st = conformal_stack(nij.matrix, nij.frame.theta_coeffs)
    st.check_norm()
    s = st.singular_values
    smax = s.max()
    return ConformalSolveReport(
        singular_values=s,
        solution_dimension=int(st.null.sum()),
        candidate=Form(6, 2, st.candidate),
        candidate_positive=bool(st.positive),
        normalized_omega=Form(6, 2, st.normalized_omega) if st.normalizable else None,
        candidate_residual=float(s[-1] / max(smax, 1e-300)) if smax > 0 else 0.0,
    )


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
    return (np.eye(comb(n, 2) * n) - np.kron(J.bidegree_projector(2, 0), J.p10())
            - np.kron(J.bidegree_projector(0, 2), J.p01()))


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
