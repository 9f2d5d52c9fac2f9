"""Skew-torsion criterion, the C-map, conformal recovery of omega, and Alt_12.

An almost Hermitian structure admits a Hermitian connection with totally
antisymmetric torsion exactly when the trilinear form

    rho(x, y, z) = omega(N(x, y), z),      x, y, z in T^{1,0},

is skew-symmetric.  Everything in this module is exact finite-dimensional
linear algebra in a chosen (1,0) frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .multilinear import Form, Metric, two_form_matrix, wedge
from .frame_manifold import CoframeAlgebra
from .acs import AlmostComplexStructure, ComplexFrame, is_pure_bidegree
from .conventions import HERMITIAN_30_NORM_COEF
from .nijenhuis import NijenhuisTensor, nijenhuis_via_brackets

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

_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k, _v in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                       (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1)]:
    _EPS3[_i, _j, _k] = _v


def hermitian_metric(J: AlmostComplexStructure, omega: Form) -> Metric:
    """g(X, Y) = omega(X, JY); raises with a diagnostic when not positive."""
    G = _omega_j(J, omega)
    sym_defect = np.max(np.abs(G - G.T))
    if sym_defect > 1e-9 * max(1.0, np.max(np.abs(G))):
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
    if abs(val.imag) > 1e-10 * max(1.0, abs(val)):
        raise ValueError("norm computation returned a non-real value")
    return float(val.real)


def _rho_components(alg: CoframeAlgebra, J: AlmostComplexStructure, omega: Form,
                    fr: ComplexFrame) -> np.ndarray:
    """rho[a, b, c] = omega(N(v_a, v_b), v_c), antisymmetric in (a, b)."""
    q01 = J.q01()
    rho = np.zeros((3, 3, 3), dtype=np.complex128)
    for a in range(3):
        for b in range(a + 1, 3):
            nab = q01 @ alg.bracket(fr.v(a), fr.v(b))
            for c in range(3):
                val = omega.evaluate([nab, fr.v(c)])
                rho[a, b, c] = val
                rho[b, a, c] = -val
    return rho


def _skew_part(rho: np.ndarray) -> np.ndarray:
    """Total antisymmetrization of a tensor already skew in its first two slots."""
    return (rho + np.einsum("bca->abc", rho) + np.einsum("cab->abc", rho)) / 3.0


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
    if not omega.is_real(tol=1e-10):
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
        admits_connection=bool(residual <= 1e-10 * max(rho_norm, 1e-300)),
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
    fr = nij.frame
    A = np.array([[a.evaluate([fr.v(c), fr.v_bar(b)]) for b in range(3)] for c in range(3)])
    return A @ nij.matrix.T


def c_map_trilinear(C: np.ndarray) -> np.ndarray:
    """Expand a C-matrix into trilinear components T[a, b, c] = eps_{dab} C[c, d]."""
    return np.einsum("dab,cd->abc", _EPS3, C)


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


def _hermitian_basis_forms(fr: ComplexFrame) -> list[Form]:
    """The 9 real (1,1)-forms i sum h_{ab} theta^a ^ conj theta^b, h Hermitian."""
    thetas = [fr.theta(a) for a in range(3)]
    tbars = [fr.theta_bar(a) for a in range(3)]
    out = []
    for a in range(3):
        out.append(1j * wedge(thetas[a], tbars[a]))
    for a in range(3):
        for b in range(a + 1, 3):
            out.append(1j * (wedge(thetas[a], tbars[b]) + wedge(thetas[b], tbars[a])))
            out.append(wedge(thetas[b], tbars[a]) - wedge(thetas[a], tbars[b]))
    return out


def conformal_solve(alg: CoframeAlgebra, J: AlmostComplexStructure,
                    nullspace_rtol: float = 1e-9) -> ConformalSolveReport:
    """Solve {a real (1,1): C(a) is totally antisymmetric} and report positivity.

    The strict nullspace is cut at `nullspace_rtol` relative to the largest
    singular value; independently, the least-squares direction (the smallest
    singular vector) is always reported, which keeps the solver usable along
    optimization paths where the structure is only approximately compatible.
    """
    nij = nijenhuis_via_brackets(alg, J)
    fr = nij.frame
    basis = _hermitian_basis_forms(fr)
    cols = []
    for w in basis:
        C = c_map(alg, J, w, nij=nij)
        T = c_map_trilinear(C)
        complement = T - _skew_part(T)
        cols.append(np.concatenate([complement.ravel().real, complement.ravel().imag]))
    L = np.column_stack(cols)  # 54 x 9 real
    u, s, vt = np.linalg.svd(L)
    smax = s.max() if s.size else 0.0
    null_dim = int(np.sum(s <= nullspace_rtol * max(smax, 1e-300))) if smax > 0 else 9
    null_vectors = vt[9 - null_dim:, :] if null_dim else np.zeros((0, 9))
    sol_basis = tuple(_combine(basis, v) for v in null_vectors)

    # candidate: the canonical positive direction projected onto the strict
    # nullspace when that stays positive (covers large solution spaces such as
    # the integrable case), otherwise the least-squares singular direction
    cand_vec = vt[-1, :]
    candidate = _combine(basis, cand_vec)
    candidate, positive = _orient_positive(J, candidate)
    if null_dim > 1:
        canonical = np.zeros(9)
        canonical[:3] = 1.0  # i sum theta^a ^ conj theta^a in the hermitian basis
        proj = null_vectors.T @ (null_vectors @ canonical)
        if np.linalg.norm(proj) > 1e-9:
            alt, alt_pos = _orient_positive(J, _combine(basis, proj / np.linalg.norm(proj)))
            if alt_pos:
                candidate, positive = alt, alt_pos
    normalized = None
    if positive:
        rep = torsion_criterion(alg, J, candidate)
        n2 = norm30_sq(candidate, rep.lambda30_component)
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


def _combine(basis, coeffs) -> Form:
    out = coeffs[0] * basis[0]
    for c, b in zip(coeffs[1:], basis[1:]):
        out = out + c * b
    return out


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
    """Alt over the first two slots: Lambda^1 (x) Lambda^2 -> Lambda^2 (x) Lambda^1."""
    from nkvol.multilinear import index_tuples

    pairs = list(index_tuples(n, 2))
    pos2 = {t: i for i, t in enumerate(pairs)}
    dim = n * len(pairs)
    M = np.zeros((dim, dim))

    def tixd(i: int, pair_idx: int) -> int:  # domain index (i, (j<k))
        return i * len(pairs) + pair_idx

    def tixt(pair_idx: int, k: int) -> int:  # target index ((x<y), z)
        return pair_idx * n + k

    for i in range(n):
        for pidx, (j, k) in enumerate(pairs):
            jj, kk = j - 1, k - 1
            col = tixd(i, pidx)
            # U_{i jj kk} = +1, U_{i kk jj} = -1; S_{xy,z} = (U_{xyz} - U_{yxz})/2
            for (x, y, z, val) in ((i, jj, kk, 0.5), (jj, i, kk, -0.5),
                                   (i, kk, jj, -0.5), (kk, i, jj, 0.5)):
                if x == y:
                    continue
                sgn = 1.0 if x < y else -1.0
                key = (min(x, y) + 1, max(x, y) + 1)
                M[tixt(pos2[key], z), col] += sgn * val
    return M


def _tensor_projector_21_12(J: AlmostComplexStructure) -> np.ndarray:
    """Projector of Lambda^2 (x) Lambda^1 onto total bidegree (2,1)+(1,2)."""
    from nkvol.multilinear import index_tuples

    n = J.dimension
    parts2 = {(p, q): J.bidegree_projector(p, q) for (p, q) in ((2, 0), (1, 1), (0, 2))}
    parts1 = {(p, q): 0.5 * (np.eye(n, dtype=np.complex128) - 1j * (2 * p - 1) * J.jstar)
              for (p, q) in ((1, 0), (0, 1))}
    # parts1[(1,0)] = P^{1,0} on coefficients, parts1[(0,1)] = P^{0,1}
    total = np.zeros((len(index_tuples(n, 2)) * n,) * 2, dtype=np.complex128)
    for (a, b), P2 in parts2.items():
        for (c, d), P1 in parts1.items():
            if (a + c, b + d) in ((2, 1), (1, 2)):
                total += np.kron(P2, P1)
    return total


def _embed_threeform(phi: Form) -> np.ndarray:
    """A 3-form as an element of Lambda^2 (x) Lambda^1 (coefficient vector)."""
    from nkvol.multilinear import index_tuples

    n = phi.dimension
    pairs = list(index_tuples(n, 2))
    out = np.zeros(len(pairs) * n, dtype=np.complex128)
    for pidx, (j, k) in enumerate(pairs):
        for z in range(1, n + 1):
            out[pidx * n + (z - 1)] = phi.coefficient((j, k, z))
    return out


def alt12_analysis(J: AlmostComplexStructure) -> Alt12Report:
    """Exact integer ranks of the Alt_12 operator and its Hermitian restriction."""
    from nkvol.multilinear import basis_form, index_tuples

    n = J.dimension
    M = _alt12_matrix(n)
    rank_full = int(np.linalg.matrix_rank(M, tol=1e-8))

    # domain basis of Lambda^1 (x) Lambda^{1,1}_R
    fr = J.frame()
    herm = _hermitian_basis_forms(fr)
    pairs = list(index_tuples(n, 2))
    cols = []
    Pi = _tensor_projector_21_12(J)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = 1.0
        for w in herm:
            vec = np.zeros(n * len(pairs), dtype=np.complex128)
            for pidx in range(len(pairs)):
                vec[i * len(pairs) + pidx] = w.coeffs[pidx]
            img = M @ vec
            cols.append(Pi @ img)
    A = np.column_stack(cols)  # complex 90 x 54
    A_real = np.vstack([A.real, A.imag])
    rank_herm = int(np.linalg.matrix_rank(A_real, tol=1e-8))

    # cokernel side: real 3-forms of bidegree (2,1)+(1,2), embedded as tensors
    proj_sum = J.bidegree_projector(2, 1) + J.bidegree_projector(1, 2)
    reals = []
    for idx in index_tuples(n, 3):
        f = basis_form(n, idx)
        pf = Form(n, 3, proj_sum @ f.coeffs)
        if pf.norm() > 1e-12:
            reals.append(pf)
    emb = [_embed_threeform(f) for f in reals]
    emb_real = [np.concatenate([v.real, v.imag]) for v in emb]
    span = np.column_stack([A_real] + [v.reshape(-1, 1) for v in emb_real])
    span_rank = int(np.linalg.matrix_rank(span, tol=1e-8))

    # dimension of the real (2,1)+(1,2) part of the tensor target
    dim = n * len(pairs)
    fix = np.vstack([(Pi - np.eye(dim)).real, (Pi - np.eye(dim)).imag])
    target_dim = dim - int(np.linalg.matrix_rank(fix, tol=1e-8))
    return Alt12Report(rank_full=rank_full, rank_hermitian=rank_herm,
                       span_with_cokernel=span_rank, target_dimension=target_dim)
