"""Skew-torsion criterion, the C-map, conformal recovery of omega, and Alt_12.

An almost Hermitian structure admits a Hermitian connection with totally
antisymmetric torsion exactly when the trilinear form

    rho(x, y, z) = omega(N(x, y), z),      x, y, z in T^{1,0},

is skew-symmetric.  Everything in this module is exact finite-dimensional
linear algebra in a chosen (1,0) frame.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

import numpy as np

from .multilinear import (Form, Metric, _wedge_tensor, matvec, two_form_coeffs,
                          two_form_matrices, two_form_matrix, wedge_coeffs)
from .frame_manifold import CoframeAlgebra
from .acs import EPS3, AlmostComplexStructure, ComplexFrame, is_pure_bidegree, theta_top_coeffs
from .conventions import HERMITIAN_30_NORM_COEF, TOLERANCES, within
from .nijenhuis import (NijenhuisTensor, nijenhuis_matrices, nijenhuis_via_brackets,
                        nijenhuis_vectors, nstar_wedge_trace)

__all__ = [
    "Alt12Report",
    "ConformalSolveReport",
    "ConformalStack",
    "TorsionCriterionReport",
    "alt12_analysis",
    "c_map",
    "conformal_solve",
    "conformal_stack",
    "hermitian_metric",
    "norm30_sq",
    "positive_11_metric",
    "skew30_coefficient",
    "torsion_criterion",
]


def hermitian_metric(J: AlmostComplexStructure, omega: Form) -> Metric:
    """g(X, Y) = omega(X, JY); raises with a diagnostic when not positive."""
    G = _omega_j(J.matrix, omega.coeffs)
    sym_defect = np.max(np.abs(G - G.T))
    if not within(sym_defect, "symmetric", max(1.0, np.max(np.abs(G)))):
        raise ValueError(
            f"omega is not J-compatible: induced bilinear form asymmetric by {sym_defect:g}"
        )
    try:  # the Metric constructor is the one positivity check
        return Metric(0.5 * (G + G.T))
    except ValueError as ex:
        raise ValueError(f"omega not positive: {ex}") from ex


def positive_11_metric(J: AlmostComplexStructure, omega: Form) -> Metric:
    """The gate on an omega that must be a positive real (1,1)-form; returns its metric."""
    if not (is_pure_bidegree(J, omega, 1, 1) and omega.is_real()):
        raise ValueError("omega must be a real (1,1)-form")
    return hermitian_metric(J, omega)


def _omega_j(Jm, omega) -> np.ndarray:
    """omega(X, JY) as a real matrix, from J matrices and 2-form coefficients; leading axes stack."""
    return (two_form_matrices(omega, Jm.shape[-1]) @ Jm).real


def norm30_sq(omega: Form, p30: Form) -> float:
    """|P|^2 of a (3,0)-form against a positive (1,1)-form omega.

    Calibrated so the flat model dz1^dz2^dz3 against (i/2) sum dz^dzbar gives 1:
    |P|^2 = coef * (P ^ conj P) / (omega^3 / 6), coef = i/8.
    """
    return _checked_norm30(*_norm30(omega.coeffs, p30.coeffs))


def _norm30(omega, p30):
    """|P|^2 before its gates, and the density of omega^3 / 6, from coefficient
    vectors; leading axes stack."""
    dens = (1.0 / 6.0) * wedge_coeffs(wedge_coeffs(omega, omega, 6, 2, 2), omega, 6, 4, 2)[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        val = HERMITIAN_30_NORM_COEF * wedge_coeffs(p30, np.conj(p30), 6, 3, 3)[..., 0] / dens
    return val, dens


def _norm30_gates(val, dens):
    """The gates of `norm30_sq`, per slice: omega^3 != 0, and |P|^2 real and finite."""
    return dens != 0, within(np.abs(val.imag), "real", np.maximum(1.0, np.abs(val)))


def _checked_norm30(val, dens) -> float:
    nondegenerate, real = _norm30_gates(val, dens)
    if not nondegenerate:
        raise ValueError("degenerate omega: omega^3 = 0")
    if not real:
        raise ValueError(f"norm computation returned a non-real or non-finite value {val}")
    return float(val.real)


def _rho_components(alg: CoframeAlgebra, J: AlmostComplexStructure, omega: Form,
                    fr: ComplexFrame) -> np.ndarray:
    """rho[a, b, c] = omega(N(v_a, v_b), v_c) = eps_dab omega(N^d, v_c)."""
    R = nijenhuis_vectors(alg, J.matrix, fr.v_coords).T @ two_form_matrix(omega) @ fr.v_coords
    return np.einsum("dab,dc->abc", EPS3, R)


def _skew_part(rho: np.ndarray) -> np.ndarray:
    """Total antisymmetrization of tensors already skew in their first two slots."""
    return (rho + np.einsum("...bca->...abc", rho) + np.einsum("...cab->...abc", rho)) / 3.0


class TorsionCriterionReport(NamedTuple):
    frame: ComplexFrame
    rho: np.ndarray                 # full trilinear components in the frame
    lambda30_component: Form        # the (3,0)-form carried by the skew part
    skewness_residual: float        # norm of the non-skew complement
    rho_norm: float
    admits_connection: bool


def torsion_criterion(alg: CoframeAlgebra, J: AlmostComplexStructure,
                      omega: Form) -> TorsionCriterionReport:
    """Decide existence of a Hermitian connection with skew torsion for omega."""
    positive_11_metric(J, omega)
    fr = J.frame()
    rho = _rho_components(alg, J, omega, fr)
    skew = _skew_part(rho)
    complement = rho - skew
    p30 = skew[0, 1, 2] * fr.theta_top()
    rho_norm = float(np.max(np.abs(rho)))
    residual = float(np.max(np.abs(complement)))
    return TorsionCriterionReport(
        frame=fr,
        rho=rho,
        lambda30_component=p30,
        skewness_residual=residual,
        rho_norm=rho_norm,
        admits_connection=within(residual, "skew_torsion", max(rho_norm, 1e-300)),
    )


def c_map(alg: CoframeAlgebra, J: AlmostComplexStructure, a: Form,
          nij: NijenhuisTensor | None = None) -> np.ndarray:
    """C = Id (x) N* on a (1,1)-form, as a matrix over theta^c (x) tcheck^d.

    The input decomposes as a = sum A_{cb} theta^c ^ conj theta^b; the map
    applies the bracket-route N* to the (0,1) leg: C[c, d] = (A M^T)[c, d].
    """
    if not is_pure_bidegree(J, a, 1, 1):
        raise ValueError("c_map expects a (1,1)-form")
    if nij is None:
        nij = nijenhuis_via_brackets(alg, J)
    A = nij.frame.components(a)[:3, 3:]
    return A @ nij.matrix.T


def c_map_trilinear(C: np.ndarray) -> np.ndarray:
    """Expand C-matrices into trilinear components T[a, b, c] = eps_{dab} C[c, d]."""
    return np.einsum("dab,...cd->...abc", EPS3, C)


class ConformalSolveReport(NamedTuple):
    frame: ComplexFrame
    singular_values: np.ndarray
    solution_dimension: int
    basis: tuple[Form, ...]          # real (1,1)-forms spanning the strict nullspace
    candidate: Form                  # least-squares direction (sign-fixed)
    candidate_positive: bool
    normalized_omega: Form | None    # candidate scaled to |rho|_omega = 1, if positive
    candidate_residual: float        # smallest singular value (relative)


def _hermitian_units() -> np.ndarray:
    """A basis h_1..h_9 of the Hermitian 3x3 matrices: E_aa, then per a < b the
    pair E_ab + E_ba, i (E_ab - E_ba)."""
    E = np.eye(3)
    out = [np.outer(E[a], E[a]) for a in range(3)]
    for a, b in ((0, 1), (0, 2), (1, 2)):
        S = np.outer(E[a], E[b])
        out += [S + S.T, 1j * (S - S.T)]
    return np.array(out, dtype=np.complex128)


_HERMITIAN_UNITS = _hermitian_units()


def _hermitian_basis(T: np.ndarray) -> np.ndarray:
    """Columns: the real (1,1)-forms i sum h_ab theta^a ^ conj theta^b, h = h_1..h_9.

    T = [theta; conj theta] is the coframe as rows (`ComplexFrame.coframe`);
    a form with frame coordinates X has the coefficient matrix T^T X T.
    Leading axes of T stack.
    """
    X = np.zeros((9, 6, 6), dtype=np.complex128)
    X[:, :3, 3:] = 1j * _HERMITIAN_UNITS
    X[:, 3:, :3] = -1j * np.swapaxes(_HERMITIAN_UNITS, -2, -1)
    T = T[..., None, :, :]
    # contiguous rows, so the columns are strided: this fixes the summation
    # order, and so the rounding, of the products B @ v
    return np.swapaxes(np.ascontiguousarray(two_form_coeffs(np.swapaxes(T, -2, -1) @ X @ T)), -2, -1)


def skew30_coefficient(F: np.ndarray, omega: np.ndarray, M: np.ndarray) -> np.ndarray:
    """c with skew part c theta^123 of rho = omega(N(.,.),.), for the (1,1)-form
    coefficients omega, frame vectors F = [v, conj v] and N* matrix M; leading
    axes stack.

    For omega = sum A_ab theta^a ^ conj theta^b the skew part is -tr(A M^T)/3 theta^123.
    """
    return -nstar_wedge_trace(F, omega, M) / 3.0


def _conformal_system(M: np.ndarray) -> np.ndarray:
    """The real 54 x 9 system of the conformal solve for the N* matrix M.

    Column k is the non-skew part of the trilinear of C(i h_k) = i h_k M^T.
    Leading axes of M stack.
    """
    T = c_map_trilinear(1j * _HERMITIAN_UNITS @ np.swapaxes(M, -2, -1)[..., None, :, :])
    complement = T - _skew_part(T)
    complement = complement.reshape(complement.shape[:-4] + (9, 27))
    return np.swapaxes(np.concatenate([complement.real, complement.imag], axis=-1), -2, -1)


def _orient_positive(Jm, omega) -> tuple[np.ndarray, np.ndarray]:
    """Flip the sign of 2-form coefficients where that makes omega positive;
    report definiteness.  Leading axes stack."""
    G = _omega_j(Jm, omega)
    eigs = np.linalg.eigvalsh(0.5 * (G + np.swapaxes(G, -2, -1)))
    positive, negative = eigs[..., 0] > 0, eigs[..., -1] < 0
    return np.where(negative[..., None], -omega, omega), positive | negative


class ConformalStack(NamedTuple):
    """The conformal solve for a stack of structures, as arrays over the leading axes.

    Every gate of the solve is a mask here; `conformal_solve` is the case
    without leading axes and raises where the gates of `norm30_sq` fail.
    """

    basis: np.ndarray            # the Hermitian basis forms as columns [..., 15, 9]
    singular_values: np.ndarray  # [..., 9], descending
    vt: np.ndarray               # right singular vectors as rows [..., 9, 9]
    null: np.ndarray             # [..., 9]: singular values cut as the strict nullspace
    candidate: np.ndarray        # coefficients of the sign-fixed candidate [..., 15]
    positive: np.ndarray         # the candidate is definite
    n2: np.ndarray               # |P|^2 of the candidate's skew (3,0) part, before its gates
    dens: np.ndarray             # omega^3 / 6 density of the candidate

    @property
    def normalizable(self) -> np.ndarray:
        """Positive candidates whose |P|^2 passes the gates of `norm30_sq` and is > 0."""
        nondegenerate, real = _norm30_gates(self.n2, self.dens)
        return self.positive & nondegenerate & real & (self.n2.real > 0)

    @property
    def normalized_omega(self) -> np.ndarray:
        """Coefficients of the candidate scaled to |rho|_omega = 1; zero where not normalizable."""
        return self.candidate * np.where(self.normalizable, self.n2.real, 0.0)[..., None]


def conformal_stack(alg: CoframeAlgebra, Jm: np.ndarray, theta: np.ndarray,
                    V: np.ndarray) -> ConformalStack:
    """The conformal solve for J matrices Jm with (1,0) frames (theta rows, V columns).

    Leading axes stack.  The candidate is the canonical positive direction
    projected onto the strict nullspace when that has dimension > 1 and stays
    positive (covers large solution spaces such as the integrable case),
    otherwise the least-squares singular direction.
    """
    M = nijenhuis_matrices(alg, Jm, theta, V)
    B = _hermitian_basis(np.concatenate([theta, np.conj(theta)], axis=-2))
    _, s, vt = np.linalg.svd(_conformal_system(M), full_matrices=False)
    null = s <= TOLERANCES["nullspace"] * np.maximum(s[..., :1], 1e-300)
    candidate, positive = _orient_positive(Jm, matvec(B, vt[..., -1, :]))

    canonical = np.zeros(9)
    canonical[:3] = 1.0  # i sum theta^a ^ conj theta^a in the hermitian basis
    proj = matvec(np.swapaxes(vt, -2, -1), null * matvec(vt, canonical))
    pn = np.linalg.norm(proj, axis=-1)
    alt, alt_pos = _orient_positive(Jm, matvec(B, proj / np.maximum(pn, 1e-300)[..., None]))
    use_alt = (null.sum(axis=-1) > 1) & (pn > TOLERANCES["nullspace"]) & alt_pos
    candidate = np.where(use_alt[..., None], alt, candidate)

    c = skew30_coefficient(np.concatenate([V, np.conj(V)], axis=-1), candidate, M)
    n2, dens = _norm30(candidate, theta_top_coeffs(theta) * c[..., None])
    return ConformalStack(basis=B, singular_values=s, vt=vt, null=null,
                          candidate=candidate, positive=positive | use_alt, n2=n2, dens=dens)


def conformal_solve(alg: CoframeAlgebra, J: AlmostComplexStructure) -> ConformalSolveReport:
    """Solve {a real (1,1): C(a) is totally antisymmetric} and report positivity.

    The strict nullspace is cut at the `nullspace` tolerance relative to the
    largest singular value; independently, the least-squares direction (the smallest
    singular vector) is always reported, which keeps the solver usable along
    optimization paths where the structure is only approximately compatible.
    """
    fr = J.frame()
    st = conformal_stack(alg, J.matrix, fr.theta_coeffs, fr.v_coords)
    s = st.singular_values
    smax = s.max() if s.size else 0.0
    normalized = None
    if st.positive:
        _checked_norm30(st.n2, st.dens)  # raises where the stack masks
        if st.normalizable:
            normalized = Form(6, 2, st.normalized_omega)
    return ConformalSolveReport(
        frame=fr,
        singular_values=s,
        solution_dimension=int(st.null.sum()),
        basis=tuple(Form(6, 2, st.basis @ v) for v in st.vt[st.null]),
        candidate=Form(6, 2, st.candidate),
        candidate_positive=bool(st.positive),
        normalized_omega=normalized,
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
    """Projector of Lambda^2 (x) Lambda^1 onto total bidegree (2,1)+(1,2)."""
    n = J.dimension
    parts2 = {(p, q): J.bidegree_projector(p, q) for (p, q) in ((2, 0), (1, 1), (0, 2))}
    parts1 = {(1, 0): J.p10(), (0, 1): J.p01()}
    total = np.zeros((comb(n, 2) * n,) * 2, dtype=np.complex128)
    for (a, b), P2 in parts2.items():
        for (c, d), P1 in parts1.items():
            if (a + c, b + d) in ((2, 1), (1, 2)):
                total += np.kron(P2, P1)
    return total


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
