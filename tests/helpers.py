"""Shared test utilities: random forms, random Lie algebras, shared fixtures, and
the oracles and constructions that only the tests use.

The oracles stay independent of the routes they check: the Leibniz
evaluation, the finite-difference gradient, the single-direction analytic
gradient, the N-vector route to rho = omega(N(.,.),.), the d-splitting
identities and the scalar residual composition through `conformal_solve` compute
on their own.  The package's layers that read N* take the `NijenhuisTensor` their
caller built; the helpers here that take (alg, J) build that tensor themselves.
"""

from __future__ import annotations

from itertools import permutations
from math import comb, factorial
from pathlib import Path

import numpy as np

from nkvol.multilinear import (EPS3, Form, Metric, basis_form, compound, form_from_one_coeffs,
                               index_tuples, two_form_coeffs, two_form_matrices, wedge,
                               zero_form)
from nkvol.frame_manifold import CoframeAlgebra, JacobiReport, Manifest, catalog, d_invariant
from nkvol.acs import (AlmostComplexStructure, ComplexFrame, _dual_vectors, bidegree_project,
                       bidegrees, is_pure_bidegree, project_to_acs)
from nkvol.conventions import ZH_DUALITY_FACTOR, within
from nkvol.nijenhuis import NijenhuisTensor, nijenhuis_vectors, nijenhuis_via_brackets
from nkvol.hermitian_torsion import conformal_solve, hermitian_metric, norm30_sq
from nkvol.nk_su3 import SU3Structure
from nkvol.g2_cone import FernandezGrayReport, _embed
from nkvol.variation_opt import (CriticalityReport, Deformation, _gradient_pairings, _offshape,
                                 _unit_delta_forms, deform_J, psi_value)

FIXTURE = Path(__file__).parent / "fixtures" / "s3s3_critical.json"


def random_form(rng, n: int, k: int, real: bool = False) -> Form:
    c = rng.standard_normal(comb(n, k))
    if not real:
        c = c + 1j * rng.standard_normal(comb(n, k))
    return Form(n, k, c)


def random_vectors(rng, n: int, count: int, real: bool = False):
    out = []
    for _ in range(count):
        v = rng.standard_normal(n)
        if not real:
            v = v + 1j * rng.standard_normal(n)
        out.append(v)
    return out


def perm_sign(p) -> int:
    sign = 1
    p = list(p)
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign


def oracle_evaluate(a: Form, vectors) -> complex:
    """Leibniz-formula evaluation, independent of any determinant routine.

    a(X_1..X_k) = sum_I a_I sum_sigma sgn(sigma) prod_s X_sigma(s)[I_s].
    """
    total = 0.0 + 0.0j
    for c, idx in zip(a.coeffs, index_tuples(a.dimension, a.degree)):
        for sigma in permutations(range(a.degree)):
            term = perm_sign(sigma) * c
            for s, i in enumerate(idx):
                term *= vectors[sigma[s]][i - 1]
            total += term
    return total


def oracle_wedge_evaluate(a: Form, b: Form, vectors) -> complex:
    """Antisymmetrized-sum evaluation of a ^ b, independent of the wedge code.

    (a ^ b)(X_1..X_{p+q}) = 1/(p! q!) sum_sigma sgn(sigma)
        a(X_sigma(first p)) b(X_sigma(last q)).
    """
    p, q = a.degree, b.degree
    total = 0.0 + 0.0j
    for sigma in permutations(range(p + q)):
        s = perm_sign(sigma)
        av = a.evaluate([vectors[sigma[i]] for i in range(p)]) if p else a.coeffs[0]
        bv = b.evaluate([vectors[sigma[p + i]] for i in range(q)]) if q else b.coeffs[0]
        total += s * av * bv
    return total / (factorial(p) * factorial(q))


# -- Lie algebra generators ---------------------------------------------------

def _basis_change(c: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Structure constants after the frame change e'_j = S e_j (valid stays valid)."""
    Sinv = np.linalg.inv(S)
    return np.einsum("ia,ajk,jb,kc->ibc", Sinv, c, S, S)


def _named_constants(kind: str) -> np.ndarray:
    c = np.zeros((6, 6, 6))
    if kind == "abelian":
        return c
    if kind == "su2su2":
        return catalog("s3s3").structure_constants.copy()
    if kind == "su2r3":
        cc = catalog("s3s3").structure_constants.copy()
        cc[:, 3:, :] = 0.0
        cc[:, :, 3:] = 0.0
        cc[3:, :, :] = 0.0
        return cc
    if kind == "heisenberg":
        # d e^6 = e^12, d e^5 = e^34: two-step nilpotent
        c[5, 0, 1] = -1.0
        c[5, 1, 0] = 1.0
        c[4, 2, 3] = -1.0
        c[4, 3, 2] = 1.0
        return c
    raise ValueError(kind)


def random_valid_algebra(rng, kinds=("su2su2", "su2r3", "heisenberg", "abelian")) -> CoframeAlgebra:
    """A Jacobi-satisfying 6-dimensional algebra in a random frame."""
    kind = kinds[rng.integers(len(kinds))]
    c = _named_constants(kind)
    S = np.eye(6) + 0.3 * rng.standard_normal((6, 6))
    while abs(np.linalg.det(S)) < 1e-2:
        S = np.eye(6) + 0.3 * rng.standard_normal((6, 6))
    cc = _basis_change(c, S)
    # exact antisymmetry survives the einsum only up to rounding; enforce it
    cc = 0.5 * (cc - np.swapaxes(cc, 1, 2))
    return CoframeAlgebra(cc)


def random_invalid_constants(rng) -> CoframeAlgebra:
    """Antisymmetric constants that genuinely violate the Jacobi identity.

    A single perturbed constant often still satisfies Jacobi (diagonal
    3-dimensional blocks always do), so candidates are re-drawn until the
    cyclic bracket sum is visibly nonzero.
    """
    while True:
        alg = random_valid_algebra(rng, kinds=("su2su2", "heisenberg"))
        c = alg.structure_constants.copy()
        for _ in range(3):
            i, j, k = (int(x) for x in rng.integers(6, size=3))
            if j == k:
                continue
            bump = 0.1 + rng.random()
            c[i, j, k] += bump
            c[i, k, j] -= bump
        cyc = (
            np.einsum("mjk,lim->lijk", c, c)
            + np.einsum("mki,ljm->lijk", c, c)
            + np.einsum("mij,lkm->lijk", c, c)
        )
        if np.max(np.abs(cyc)) > 1e-6:
            return CoframeAlgebra(c)


def random_acs(rng, n: int = 6) -> AlmostComplexStructure:
    """Random well-conditioned J with exactly J^2 = -Id (conjugated block)."""
    J0 = np.zeros((n, n))
    for k in range(0, n, 2):
        J0[k, k + 1] = 1.0
        J0[k + 1, k] = -1.0
    while True:
        S = np.eye(n) + 0.4 * rng.standard_normal((n, n))
        if np.linalg.cond(S) < 25.0:
            break
    return AlmostComplexStructure(project_to_acs(S @ J0 @ np.linalg.inv(S)))


# -- shared fixtures ------------------------------------------------------------

def s3s3():
    m = catalog("s3s3")
    return m.algebra(), AlmostComplexStructure(m.J)


def torus():
    m = catalog("torus6")
    return m.algebra(), AlmostComplexStructure(m.J)


def nk_fixture():
    m = Manifest.load(FIXTURE)
    return m.algebra(), AlmostComplexStructure(m.J), m.omega, m.Omega3


# The nearly-Kaehler structure of S^3 x S^3 in closed form, on the s3s3 constants:
# J e^i = (-e^i + 2 e^{i+3}) / sqrt 3 and J e^{i+3} = (-2 e^i + e^{i+3}) / sqrt 3.
J_NK = np.kron(np.array([[-1.0, 2.0], [-2.0, 1.0]]) / np.sqrt(3.0), np.eye(3))


def nk_closed_form() -> Manifest:
    """The s3s3 catalog manifest with J_NK in place of its J and no metric."""
    return catalog("s3s3")._replace(name="s3s3_nk", J=J_NK, metric=None)


def product_omega(scales=(1.0, 1.0, 1.0)):
    """The product Hermitian form -sum_k scales[k] e^k ^ e^{k+3} on s3s3."""
    w = -scales[0] * wedge(basis_form(6, (1,)), basis_form(6, (4,)))
    w = w + -scales[1] * wedge(basis_form(6, (2,)), basis_form(6, (5,)))
    w = w + -scales[2] * wedge(basis_form(6, (3,)), basis_form(6, (6,)))
    return w


def flat_omega():
    return flat_su3_forms()[0]


# -- oracles and constructions only the tests use ------------------------------

def inner_product(g: Metric, a: Form, b: Form) -> complex:
    """Bilinear (unconjugated) extension of the metric pairing on equal-degree forms."""
    if a.degree != b.degree or a.dimension != b.dimension:
        raise ValueError("inner product needs equal degree and dimension")
    G = compound(g.inverse(), a.degree)
    return complex(a.coeffs @ G @ b.coeffs)


def frame_from_thetas(J: AlmostComplexStructure, rows: np.ndarray) -> ComplexFrame:
    """Build the dual (1,0) vectors for three independent (1,0)-form rows."""
    rows = np.asarray(rows, dtype=np.complex128)
    return ComplexFrame(J, rows, _dual_vectors(rows))


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
        if within(abs(c), "vanishes"):
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


def flat_su3_forms() -> tuple[Form, Form]:
    """The flat calibration pair omega0, Omega0 (dz_k = e^{2k-1} + i e^{2k})."""
    omega0 = (wedge(basis_form(6, (1,)), basis_form(6, (2,)))
              + wedge(basis_form(6, (3,)), basis_form(6, (4,)))
              + wedge(basis_form(6, (5,)), basis_form(6, (6,))))
    dz = [basis_form(6, (2 * k + 1,)) + 1j * basis_form(6, (2 * k + 2,)) for k in range(3)]
    Omega0 = wedge(wedge(dz[0], dz[1]), dz[2])
    return omega0, Omega0


def flat_g2_form() -> Form:
    """The reference stable 3-form omega0 ^ dt + Re Omega0 on 7 dimensions."""
    omega0, Omega0 = flat_su3_forms()
    return wedge(_embed(omega0), basis_form(7, (7,))) + _embed(Omega0.real())


def delta_as_21_form(alg: CoframeAlgebra, J: AlmostComplexStructure, omega: Form,
                     delta: Deformation, frame: ComplexFrame | None = None) -> Form:
    """Convert delta to the (2,1)-form sum_ab delta[a, b] (iota_{v_a} P) ^ conj theta^b.

    P is the unit skew (3,0) part of omega(N(.,.),.) (`_unit_delta_forms`).
    """
    fr = frame if frame is not None else J.frame()
    Q = _unit_delta_forms(omega, nijenhuis_via_brackets(alg, J, frame=fr))
    return Form(6, 3, np.einsum("ab,abk->k", delta.matrix, Q))


def psi_gradient_analytic(alg: CoframeAlgebra, J: AlmostComplexStructure,
                          omega: Form, delta: Deformation) -> float:
    """2 Re density(Pi^{2,2} d(delta-form) ^ omega), in the |rho| = 1 gauge."""
    pairings = _gradient_pairings(alg, nijenhuis_via_brackets(alg, J), omega)
    return float(np.sum(delta.matrix * pairings).real)


PSI_FD_STEP = 1e-4        # central difference of psi_gradient_fd, halved once by Richardson


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


def scalar_residual_vector(alg: CoframeAlgebra, J: AlmostComplexStructure):
    """The reference for `criticality_residual_vector`: the N* tensor of J, `conformal_solve`
    on it, then `_offshape` of the normalized omega in the tensor's frame.  Returns (the
    vector or None, the report, the tensor)."""
    nij = nijenhuis_via_brackets(alg, J)
    rep = conformal_solve(nij)
    w = rep.normalized_omega
    if w is None:
        return None, rep, nij
    return _offshape(alg, nij.frame.theta_coeffs, nij.frame.v_coords, w.coeffs), rep, nij


def _rho_components(alg: CoframeAlgebra, J: AlmostComplexStructure, omega: Form,
                    fr: ComplexFrame) -> np.ndarray:
    """rho[a, b, c] = omega(N(v_a, v_b), v_c) = eps_dab omega(N^d, v_c)."""
    N = nijenhuis_vectors(alg, J.matrix, fr.v_coords)
    R = N.T @ two_form_matrices(omega.coeffs, 6) @ fr.v_coords
    return np.einsum("dab,dc->abc", EPS3, R)


def j_multiplicative(J: AlmostComplexStructure, a: Form) -> Form:
    """Precompose every slot with J: on a (p, q) form this is i^{p-q} times it."""
    return Form(a.dimension, a.degree, compound(J.jstar, a.degree) @ a.coeffs)


# -- comparisons, views and the d-splitting that only the tests call -----------

def forms_close(a: Form, b: Form, tol: float = 1e-12) -> bool:
    """Comparison at absolute tolerance after scaling to max(1, both norms)."""
    return within((a - b).norm(), tol, max(1.0, a.norm(), b.norm()))


def metric_volume_form(g: Metric) -> Form:
    n = g.dimension
    scale = g.orientation * np.sqrt(np.linalg.det(g.matrix))
    c = np.zeros(1, dtype=np.complex128)
    c[0] = scale
    return Form(n, n, c)


def frame_theta(fr: ComplexFrame, a: int) -> Form:
    return form_from_one_coeffs(fr.dimension, fr.theta_coeffs[a])


def frame_two_form(fr: ComplexFrame, X) -> Form:
    """The 2-form with frame-coordinate matrix X (antisymmetric 6x6)."""
    T = fr.coframe
    return Form(fr.dimension, 2, two_form_coeffs(T.T @ X @ T))


def frame_check_residual(fr: ComplexFrame) -> float:
    """Max deviation of duality/type relations; diagnostics for tests."""
    theta = fr.theta_coeffs
    return float(max(np.max(np.abs(theta @ fr.v_coords - np.eye(3))),
                     np.max(np.abs(theta @ fr.J.matrix - 1j * theta))))


def nijenhuis_apply(nij: NijenhuisTensor, zeta: Form) -> Form:
    """N* on an arbitrary (0,1)-form (expanded over conj theta)."""
    img = nij.matrix @ nij.frame.components(zeta)[3:]
    X = np.zeros((6, 6), dtype=np.complex128)
    X[:3, :3] = np.einsum("b,bcd->cd", img, EPS3)
    return frame_two_form(nij.frame, X)


def nijenhuis_in_frame(nij: NijenhuisTensor, frame: ComplexFrame) -> np.ndarray:
    """The matrix transported to another (1,0) coframe of the same J."""
    # theta'^a = sum_c S[a, c] theta^c
    S = frame.theta_coeffs @ nij.frame.v_coords
    det = np.linalg.det(S)
    return (S @ nij.matrix @ np.conj(S).T) / det


def jacobi_residual(rep: JacobiReport) -> float:
    return max(rep.residual_dd, rep.residual_bracket)


def fg_passes(fg: FernandezGrayReport) -> bool:
    return fg.closed and fg.coclosed


def is_critical(rep: CriticalityReport) -> bool:
    return rep.verdict == "critical"


def d_split(alg: CoframeAlgebra, J: AlmostComplexStructure, a: Form,
            p: int | None = None, q: int | None = None) -> tuple[Form, Form, Form, Form]:
    """The four bidegree components of d on a pure (p, q) form.

    Returns (d^{2,-1} a, d^{1,0} a, d^{0,1} a, d^{-1,2} a), located at
    (p+2, q-1), (p+1, q), (p, q+1), (p-1, q+2).  Components whose target
    leaves the admissible range are identically zero.  When (p, q) is not
    supplied it is detected from the input; mixed-bidegree input is rejected
    either way, callers project first.
    """
    if p is None or q is None:
        for pp, qq in bidegrees(a.dimension, a.degree):
            if is_pure_bidegree(J, a, pp, qq):
                p, q = pp, qq
                break
        else:
            raise ValueError("input has mixed bidegree; project before splitting")
    if not is_pure_bidegree(J, a, p, q):
        raise ValueError(f"input is not of pure bidegree ({p}, {q})")
    da = d_invariant(alg, a)
    targets = [(p + 2, q - 1), (p + 1, q), (p, q + 1), (p - 1, q + 2)]
    out = []
    for tp, tq in targets:
        if (tp, tq) in bidegrees(a.dimension, a.degree + 1):
            out.append(bidegree_project(J, da, tp, tq))
        else:
            out.append(zero_form(a.dimension, a.degree + 1))
    return tuple(out)
