"""Skew-torsion criterion, the C-map, conformal recovery of omega, and Alt_12.

An almost Hermitian structure admits a Hermitian connection with totally
antisymmetric torsion exactly when the trilinear form

    rho(x, y, z) = omega(N(x, y), z),      x, y, z in T^{1,0},

is skew-symmetric.  Everything in this module is exact finite-dimensional
linear algebra in a chosen (1,0) frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .multilinear import Form, Metric, _wedge_tensor, two_form_matrix, wedge
from .frame_manifold import CoframeAlgebra
from .acs import EPS3, AlmostComplexStructure, ComplexFrame, is_pure_bidegree
from .conventions import HERMITIAN_30_NORM_COEF, TOLERANCES, within
from .nijenhuis import NijenhuisTensor, nijenhuis_via_brackets, nijenhuis_vectors

__all__ = [
    "Alt12Report",
    "ConformalSolveReport",
    "TorsionCriterionReport",
    "alt12_analysis",
    "c_map",
    "conformal_solve",
    "hermitian_metric",
    "norm30_sq",
    "torsion_criterion",
]


def hermitian_metric(J: AlmostComplexStructure, omega: Form) -> Metric:
    """g(X, Y) = omega(X, JY); raises with a diagnostic when not positive."""
    G = _omega_j(J, omega)
    sym_defect = np.max(np.abs(G - G.T))
    if not within(sym_defect, "symmetric", max(1.0, np.max(np.abs(G)))):
        raise ValueError(
            f"omega is not J-compatible: induced bilinear form asymmetric by {sym_defect:g}"
        )
    eigs = np.linalg.eigvalsh(0.5 * (G + G.T))
    if eigs.min() <= 0:
        raise ValueError(f"omega not positive: metric eigenvalues {np.round(eigs, 6)}")
    return Metric(0.5 * (G + G.T))


def _omega_j(J: AlmostComplexStructure, omega: Form) -> np.ndarray:
    """The bilinear form omega(X, JY) as a real matrix."""
    return (two_form_matrix(omega) @ J.matrix).real


def norm30_sq(omega: Form, p30: Form) -> float:
    """|P|^2 of a (3,0)-form against a positive (1,1)-form omega.

    Calibrated so the flat model dz1^dz2^dz3 against (i/2) sum dz^dzbar gives 1:
    |P|^2 = coef * (P ^ conj P) / (omega^3 / 6), coef = i/8.
    """
    volh = (1.0 / 6.0) * wedge(wedge(omega, omega), omega)
    dens = volh.coeffs[0]
    if abs(dens) == 0.0:
        raise ValueError("degenerate omega: omega^3 = 0")
    val = HERMITIAN_30_NORM_COEF * wedge(p30, p30.conjugate()).coeffs[0] / dens
    if not within(abs(val.imag), "real", max(1.0, abs(val))):
        raise ValueError(f"norm computation returned a non-real or non-finite value {val}")
    return float(val.real)


def _rho_components(alg: CoframeAlgebra, J: AlmostComplexStructure, omega: Form,
                    fr: ComplexFrame) -> np.ndarray:
    """rho[a, b, c] = omega(N(v_a, v_b), v_c) = eps_dab omega(N^d, v_c)."""
    R = nijenhuis_vectors(alg, J, fr).T @ two_form_matrix(omega) @ fr.v_coords
    return np.einsum("dab,dc->abc", EPS3, R)


def _skew_part(rho: np.ndarray) -> np.ndarray:
    """Total antisymmetrization of tensors already skew in their first two slots."""
    return (rho + np.einsum("...bca->...abc", rho) + np.einsum("...cab->...abc", rho)) / 3.0


@dataclass(frozen=True)
class TorsionCriterionReport:
    frame: ComplexFrame
    rho: np.ndarray                 # full trilinear components in the frame
    lambda30_component: Form        # the (3,0)-form carried by the skew part
    skewness_residual: float        # norm of the non-skew complement
    rho_norm: float
    admits_connection: bool


def torsion_criterion(alg: CoframeAlgebra, J: AlmostComplexStructure,
                      omega: Form) -> TorsionCriterionReport:
    """Decide existence of a Hermitian connection with skew torsion for omega."""
    if not is_pure_bidegree(J, omega, 1, 1):
        raise ValueError("torsion criterion expects a real (1,1)-form")
    if not omega.is_real():
        raise ValueError("torsion criterion expects a real form")
    hermitian_metric(J, omega)  # positivity gate, raises with diagnostics
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


@dataclass(frozen=True)
class ConformalSolveReport:
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


def _hermitian_basis(fr: ComplexFrame) -> np.ndarray:
    """Columns: the real (1,1)-forms i sum h_ab theta^a ^ conj theta^b, h = h_1..h_9."""
    cols = []
    for h in _HERMITIAN_UNITS:
        X = np.zeros((6, 6), dtype=np.complex128)
        X[:3, 3:] = 1j * h
        X[3:, :3] = -1j * h.T
        cols.append(fr.two_form(X).coeffs)
    return np.array(cols).T


def _conformal_system(M: np.ndarray) -> np.ndarray:
    """The real 54 x 9 system of the conformal solve for the N* matrix M.

    Column k is the non-skew part of the trilinear of C(i h_k) = i h_k M^T.
    """
    T = c_map_trilinear(1j * _HERMITIAN_UNITS @ M.T)
    complement = (T - _skew_part(T)).reshape(9, 27)
    return np.hstack([complement.real, complement.imag]).T


def conformal_solve(alg: CoframeAlgebra, J: AlmostComplexStructure) -> ConformalSolveReport:
    """Solve {a real (1,1): C(a) is totally antisymmetric} and report positivity.

    The strict nullspace is cut at the `nullspace` tolerance relative to the
    largest singular value; independently, the least-squares direction (the smallest
    singular vector) is always reported, which keeps the solver usable along
    optimization paths where the structure is only approximately compatible.
    """
    nij = nijenhuis_via_brackets(alg, J)
    fr = nij.frame
    B = _hermitian_basis(fr)
    u, s, vt = np.linalg.svd(_conformal_system(nij.matrix))
    smax = s.max() if s.size else 0.0
    null_dim = int(np.sum(s <= TOLERANCES["nullspace"] * max(smax, 1e-300))) if smax > 0 else 9
    null_vectors = vt[9 - null_dim:, :] if null_dim else np.zeros((0, 9))
    sol_basis = tuple(Form(6, 2, B @ v) for v in null_vectors)

    # candidate: the canonical positive direction projected onto the strict
    # nullspace when that stays positive (covers large solution spaces such as
    # the integrable case), otherwise the least-squares singular direction
    cand_vec = vt[-1, :]
    candidate = Form(6, 2, B @ cand_vec)
    candidate, positive = _orient_positive(J, candidate)
    if null_dim > 1:
        canonical = np.zeros(9)
        canonical[:3] = 1.0  # i sum theta^a ^ conj theta^a in the hermitian basis
        proj = null_vectors.T @ (null_vectors @ canonical)
        if np.linalg.norm(proj) > TOLERANCES["nullspace"]:
            alt, alt_pos = _orient_positive(J, Form(6, 2, B @ (proj / np.linalg.norm(proj))))
            if alt_pos:
                candidate, positive = alt, alt_pos
    normalized = None
    if positive:
        # the skew part of rho for a = A_ab theta^a ^ conj theta^b is
        # -tr(A M^T)/3 theta^123, read off the N* matrix M in hand
        A = fr.components(candidate)[:3, 3:]
        n2 = norm30_sq(candidate, (-np.trace(A @ nij.matrix.T) / 3.0) * fr.theta_top())
        if n2 > 0:
            normalized = n2 * candidate
    return ConformalSolveReport(
        frame=fr,
        singular_values=s,
        solution_dimension=null_dim,
        basis=sol_basis,
        candidate=candidate,
        candidate_positive=positive,
        normalized_omega=normalized,
        candidate_residual=float(s[-1] / max(smax, 1e-300)) if smax > 0 else 0.0,
    )


def _orient_positive(J: AlmostComplexStructure, omega: Form) -> tuple[Form, bool]:
    """Flip the sign if that makes omega positive; report definiteness."""
    G = _omega_j(J, omega)
    G = 0.5 * (G + G.T)
    eigs = np.linalg.eigvalsh(G)
    if eigs.min() > 0:
        return omega, True
    if eigs.max() < 0:
        return -1.0 * omega, True
    return omega, False


# ---------------------------------------------------------------------------
# Alt_12 linear algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Alt12Report:
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
    A = Pi @ M @ np.kron(np.eye(n), _hermitian_basis(J.frame()))  # complex 90 x 54
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
