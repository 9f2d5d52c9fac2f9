"""Shared test utilities: random forms, random Lie algebras, shared fixtures, and
the oracles and constructions that only the tests use.

The oracles stay independent of the routes they check: the Leibniz
evaluation, the finite-difference gradient, the single-direction analytic
gradient (through the Lambda^4 projector), the N-vector route to
rho = omega(N(.,.),.), the d-splitting identities, the wedge route to |P|^2, the
Lambda^k projectors of the bidegree calculus (`bidegree_project`) and the scalar
residual composition through `conformal_solve` compute on their own.
The package's layers that read N* take the `NijenhuisTensor` their caller
built; the helpers here that take (alg, J) build that tensor themselves.
"""

from __future__ import annotations

from itertools import permutations
from math import comb, factorial
from pathlib import Path

import numpy as np

from nkvol.multilinear import (EPS3, Form, Metric, _index_array, basis_form, compound,
                               form_from_one_coeffs, index_tuples, matvec, two_form_coeffs,
                               two_form_matrices, wedge, wedge_coeffs)
from nkvol.frame_manifold import CoframeAlgebra, JacobiReport, Manifest, catalog, d_invariant
from nkvol.acs import (AlmostComplexStructure, ComplexFrame, _dual_vectors, acs_gates, bidegrees,
                       project_to_acs, split_30, type_projectors)
from nkvol.conventions import HERMITIAN_30_NORM_COEF, KAPPA_CONV, ZH_DUALITY_FACTOR, within
from nkvol.nijenhuis import NijenhuisTensor, bracket_vectors, nijenhuis_via_brackets, volume_form
from nkvol.hermitian_torsion import HermitianForm, _hermitian_form_coeffs, conformal_solve
from nkvol.nk_su3 import SU3Structure
from nkvol.g2_cone import FernandezGrayReport, _embed
from nkvol.variation_opt import (CriticalityReport, Deformation, _graph_chart, _residual_kernel,
                                 _unit_delta_forms, deform_J, delta_basis, find_critical)

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


def vanished_su2su2_search():
    """su(2)+su(2) and the search (`max_iter` 40) from its 0-based `random_acs` draw 5 of rng 2026:
    the residual vanishes outside the compatibility domain, at a J whose conformal candidate
    has a metric with least eigenvalue about 1e-12 of its largest, at the `definite` cut."""
    alg = catalog("s3s3").algebra()
    rng = np.random.default_rng(2026)
    J = [random_acs(rng) for _ in range(6)][5]
    return alg, find_critical(alg, J, max_iter=40)


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

def zero_form(n: int, k: int) -> Form:
    return Form(n, k, np.zeros(comb(n, k), dtype=np.complex128))


def bidegree_project(J: AlmostComplexStructure, a: Form, p: int, q: int) -> Form:
    """The oracle of the bidegree calculus: the component of a degree-(p+q) form under the
    Hodge-type decomposition, through the Lambda^k projector of J."""
    if p + q != a.degree:
        raise ValueError(f"(p, q) = ({p}, {q}) does not sum to degree {a.degree}")
    if (p, q) not in bidegrees(a.dimension, a.degree):
        return zero_form(a.dimension, a.degree)
    proj = J.bidegree_projector(p, q)
    return Form(a.dimension, a.degree, proj @ a.coeffs)


def is_pure_bidegree(J: AlmostComplexStructure, a: Form, p: int, q: int) -> bool:
    return within((bidegree_project(J, a, p, q) - a).norm(), "pure_bidegree", max(1.0, a.norm()))


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


def theta_top_reference(theta) -> np.ndarray:
    """`acs.theta_top_coeffs` through one gather of the rows at every increasing triple, moved
    to the front, and list-indexed cross products: the same products and sums."""
    x, y, z = np.moveaxis(theta[..., _index_array(theta.shape[-1], 3)], -3, 0)
    y_cross_z = y[..., [1, 2, 0]] * z[..., [2, 0, 1]] - y[..., [2, 0, 1]] * z[..., [1, 2, 0]]
    return np.sum(x * y_cross_z, axis=-1)


def top_tangent_reference(rows, drows) -> np.ndarray:
    """`variation_opt._top_tangent` as 3 x len(drows) stacked triple products, each slot's row
    replaced through np.where, summed over the slots."""
    slots = np.eye(3, dtype=bool)[:, None, :, None]
    return theta_top_reference(np.where(slots, drows, rows)).sum(axis=0)


def c_map_trilinear(C: np.ndarray) -> np.ndarray:
    """The oracle trilinear T[a, b, c] = eps_dab C[c, d] of C-matrices: rho = omega(N(.,.),.)
    is -T(A M^T) for omega's frame block A and the N* matrix M.  Leading axes stack."""
    return np.einsum("dab,...cd->...abc", EPS3, C)



def adapted_frame(J: AlmostComplexStructure, omega: Form,
                  Omega: Form | None = None) -> ComplexFrame:
    """An orthonormal (1,0) coframe (|theta|^2 = 2 each) with Omega = theta^123.

    The normalization matches the flat model, where dz_k = e^{2k-1} + i e^{2k}
    has squared length 2 and dz1 ^ dz2 ^ dz3 has unit norm against omega0.
    """
    fr0 = J.frame()
    ginv = HermitianForm(fr0, omega).metric.inverse()
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
    J = s.form.frame.J
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
    fr = adapted_frame(J, s.form.omega, s.Omega)
    nij = nijenhuis_via_brackets(alg, J, frame=fr)
    target = ZH_DUALITY_FACTOR * s.lam * np.eye(3)
    res["nijenhuis_diagonal"] = float(
        np.max(np.abs(nij.matrix - target)) / max(1.0, float(np.max(np.abs(nij.matrix))))
    )
    res["adapted_norm"] = abs(norm30_wedge_route(s.form.omega, fr.theta_top()) - 1.0)
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
    Q = _unit_delta_forms(HermitianForm(fr, omega), nijenhuis_via_brackets(alg, J, frame=fr))
    return Form(6, 3, np.einsum("ab,abk->k", delta.matrix, Q))


def psi_gradient_analytic(alg: CoframeAlgebra, J: AlmostComplexStructure,
                          omega: Form, delta: Deformation) -> float:
    """KAPPA_CONV * 2 Re density(Pi^{2,2} d(delta-form) ^ omega), oriented, in the |rho| = 1
    gauge: the one direction delta, through the Lambda^4 projector of J."""
    nij = nijenhuis_via_brackets(alg, J)
    HermitianForm(nij.frame, omega)  # the gate of `psi_gradient`
    if not nij.nondegenerate:
        raise ValueError("gradient undefined: Nijenhuis tensor degenerate")
    dd = bidegree_project(J, d_invariant(alg, delta_as_21_form(alg, J, omega, delta)), 2, 2)
    pairing = wedge(dd, omega).coeffs[0]
    return float((KAPPA_CONV * 2.0 * pairing * np.sign(nij.frame.volume)).real)


PSI_FD_STEP = 1e-4        # central difference of psi_gradient_fd, halved once by Richardson


def psi_value(alg: CoframeAlgebra, J: AlmostComplexStructure) -> float:
    """The finite-difference oracle's psi: the density of the canonical volume form of J,
    from its own frame and N* tensor; zero iff the tensor degenerates."""
    return volume_form(nijenhuis_via_brackets(alg, J)).psi


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


def candidate_coeffs(st) -> np.ndarray:
    """Coefficients [..., 15] of a `ConformalStack`'s sign-fixed candidate, positive or not:
    i sum H_ab theta^a ^ conj theta^b."""
    return _hermitian_form_coeffs(st.theta, st.hermitian)


def scalar_residual_vector(alg: CoframeAlgebra, J: AlmostComplexStructure):
    """The reference for `criticality_residual_vector`: the N* tensor of J, `conformal_solve`
    on it, then [Re; Im] of the `split_30` off-shape part of d omega, omega the normalized
    one, in the tensor's frame.  Returns (the vector or None, the report, the tensor)."""
    nij = nijenhuis_via_brackets(alg, J)
    rep = conformal_solve(nij)
    if not rep.normalizable:
        return None, rep, nij
    fr = nij.frame
    off = split_30(matvec(alg.d_matrices[2], rep.normalized_omega), fr.theta_coeffs, fr.v_coords)[1]
    return np.concatenate([off.real, off.imag]), rep, nij


JACOBIAN_FD_STEP = 1e-6   # central difference of `fd_jacobian`, per real parameter


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
    vecs, normalizable = _residual_kernel(alg, Jm)[:2]
    valid = valid & normalizable
    return np.where(valid[..., None], vecs, 0.0), valid


def fd_deltas(h: float = JACOBIAN_FD_STEP) -> np.ndarray:
    """+h and -h along each of the 18 real directions of `delta_basis`."""
    steps = h * np.array([d.matrix for d in delta_basis()])
    return np.concatenate([steps, -steps])


def fd_jacobian(alg: CoframeAlgebra, J: AlmostComplexStructure, frame: ComplexFrame | None = None,
                h: float = JACOBIAN_FD_STEP) -> np.ndarray:
    """The oracle of the search's analytic Jacobian: central differences of the residual
    over the 36 structures `J +- h delta_p` in one stacked kernel call.  A column with a
    rejected side stays zero."""
    vecs, valid = criticality_residuals(alg, J, fd_deltas(h), frame=frame)
    both = valid[:18] & valid[18:]
    jac = np.zeros((vecs.shape[-1], 18))
    jac[:, both] = ((vecs[:18] - vecs[18:]) / (2.0 * h))[both].T
    return jac


def norm30_wedge_route(omega: Form, p30: Form) -> float:
    """The oracle for `norm30_sq`: |P|^2 of a (3,0)-form against a positive (1,1)-form omega
    by its definition, through wedges of forms.

    Calibrated so the flat model dz1^dz2^dz3 against (i/2) sum dz^dzbar gives 1:
    |P|^2 = coef * (P ^ conj P) / (omega^3 / 6), coef = i/8.
    """
    w = omega.coeffs
    dens = (1.0 / 6.0) * wedge_coeffs(wedge_coeffs(w, w, 6, 2, 2), w, 6, 4, 2)[0]
    if dens == 0:
        raise ValueError("degenerate omega: omega^3 = 0")
    val = HERMITIAN_30_NORM_COEF * wedge_coeffs(p30.coeffs, np.conj(p30.coeffs), 6, 3, 3)[0] / dens
    if not within(abs(val.imag), "real", max(1.0, abs(val))):
        raise ValueError(f"norm computation returned a non-real or non-finite value {val}")
    return float(val.real)


def offshape_projector_route(alg: CoframeAlgebra, h: HermitianForm) -> tuple[float, Form]:
    """The oracle for `offshape_residual` through the Lambda^3 projectors of J:
    |Pi^{2,1} d omega + Pi^{1,2} d omega| / max(1, |d omega|), and Pi^{3,0} d omega."""
    domega = d_invariant(alg, h.omega)
    J = h.frame.J
    off = bidegree_project(J, domega, 2, 1) + bidegree_project(J, domega, 1, 2)
    return off.norm() / max(1.0, domega.norm()), bidegree_project(J, domega, 3, 0)


def _rho_components(alg: CoframeAlgebra, J: AlmostComplexStructure, omega: Form,
                    fr: ComplexFrame) -> np.ndarray:
    """rho[a, b, c] = omega(N(v_a, v_b), v_c) = eps_dab omega(N^d, v_c), with the vectors
    N^d = 1/2 eps_dbc P^{0,1}[v_b, v_c]."""
    N = type_projectors(J.matrix)[1].T @ bracket_vectors(alg, fr.v_coords, fr.v_coords)
    R = N.T @ two_form_matrices(omega.coeffs, 6) @ fr.v_coords
    return np.einsum("dab,dc->abc", EPS3, R)


def j_multiplicative(J: AlmostComplexStructure, a: Form) -> Form:
    """Precompose every slot with J: on a (p, q) form this is i^{p-q} times it."""
    return Form(a.dimension, a.degree, compound(J.jstar, a.degree) @ a.coeffs)


# -- comparisons, views and the d-splitting that only the tests call -----------

def forms_close(a: Form, b: Form, tol: float = 1e-12) -> bool:
    """Comparison at absolute tolerance after scaling to max(1, both norms); NaN fails it."""
    scale = max(1.0, a.norm(), b.norm())
    return bool(np.isfinite(scale) and (a - b).norm() <= tol * scale)


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
