"""Bidegree decomposition and the four-way splitting of d."""

from itertools import combinations

import numpy as np
import pytest

from nkvol.multilinear import Form, basis_form, compound, form_from_one_coeffs, wedge
from nkvol.frame_manifold import catalog
from nkvol.acs import (
    EPS3,
    AlmostComplexStructure,
    bidegrees,
    is_type_11,
    project_to_acs,
    type_projectors,
)

from helpers import (bidegree_project, d_split, forms_close, frame_check_residual, frame_theta,
                     frame_two_form, is_pure_bidegree, j_multiplicative, random_acs, random_form,
                     zero_form)


def torus_J():
    return AlmostComplexStructure(catalog("torus6").J)


def s3s3_J():
    return AlmostComplexStructure(catalog("s3s3").J)


def test_construction_rejects_non_acs():
    with pytest.raises(ValueError):
        AlmostComplexStructure(np.eye(6))
    nan_J = catalog("torus6").J.copy()
    nan_J[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        AlmostComplexStructure(nan_J)
    with pytest.raises(ValueError, match="6x6"):
        AlmostComplexStructure(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_within_fails_on_non_finite():
    from nkvol.conventions import within

    assert within(1e-11, "cartan") and not within(1e-11, "routes_agree")
    assert within(5e-9, "cartan", 100.0)
    with pytest.raises(KeyError):  # a gate is named by its TOLERANCES entry, never a number
        within(1e-11, 1e-10)
    for residual, scale in ((np.nan, 1.0), (np.inf, 1.0), (0.0, np.inf), (0.0, np.nan)):
        assert not within(residual, "cartan", scale)


def test_projector_identities():
    rng = np.random.default_rng(1)
    for _ in range(10):
        J = random_acs(rng)
        P, Q = type_projectors(J.matrix)
        assert np.max(np.abs(P + Q - np.eye(6))) < 1e-12
        assert np.max(np.abs(P @ P - P)) < 1e-12
        assert np.max(np.abs(np.conj(P) - Q)) < 1e-12


def test_flat_dz_dzbar_types():
    J = torus_J()
    # with J e^1 = e^2 on the coframe, dz = e^1 - i e^2 spans Lambda^{1,0};
    # dz ^ conj(dz) has type (1,1) and no (2,0) part under either convention
    dz = form_from_one_coeffs(6, [1, -1j, 0, 0, 0, 0])
    dzbar = dz.conjugate()
    a = wedge(dz, dzbar)
    assert forms_close(bidegree_project(J, a, 1, 1), a)
    assert bidegree_project(J, a, 2, 0).norm() < 1e-14
    # and dz itself is pure (1, 0)
    assert forms_close(bidegree_project(J, dz, 1, 0), dz)


def test_partition_of_identity():
    rng = np.random.default_rng(2)
    for _ in range(5):
        J = random_acs(rng)
        for k in range(1, 7):
            a = random_form(rng, 6, k)
            total = zero_form(6, k)
            for p, q in bidegrees(6, k):
                total = total + bidegree_project(J, a, p, q)
            assert forms_close(total, a, tol=1e-11)


def test_projection_idempotent_and_conjugation():
    rng = np.random.default_rng(3)
    for _ in range(5):
        J = random_acs(rng)
        k = int(rng.integers(1, 6))
        a = random_form(rng, 6, k)
        for p, q in bidegrees(6, k):
            pa = bidegree_project(J, a, p, q)
            assert forms_close(bidegree_project(J, pa, p, q), pa, tol=1e-11)
            conj_swap = bidegree_project(J, a.conjugate(), q, p)
            assert forms_close(pa.conjugate(), conj_swap, tol=1e-11)


def test_type_11_gate_matches_the_projector_oracle():
    # the (1,1) gate reads |J* a - a| / 2 (`is_type_11`), which is |Pi^{1,1} a - a| exactly:
    # J* acts on 2-forms through its compound, by +1 on (1,1) and -1 on (2,0) + (0,2).  On
    # random J, against the projector oracle: random real and complex 2-forms, their (1,1)
    # parts, and those parts moved off by s times the `pure_bidegree` gate along their
    # (2,0) + (0,2) part, s = 0.5 and 0.99 inside the gate and s = 1.01 and 2 outside it
    from nkvol.conventions import TOLERANCES

    rng = np.random.default_rng(6)
    for _ in range(100):
        J = random_acs(rng)
        for real in (True, False):
            a = random_form(rng, 6, 2, real=real)
            a11 = bidegree_project(J, a, 1, 1)
            off = a - a11
            cases = [(a, False), (a11, True)]
            for s in (0.5, 0.99, 1.01, 2.0):
                t = s * TOLERANCES["pure_bidegree"] * max(1.0, a11.norm())
                cases.append((a11 + (t / off.norm()) * off, s < 1.0))
            for f, inside in cases:
                defect = np.max(np.abs(compound(J.jstar, 2) @ f.coeffs - f.coeffs)) / 2.0
                ref = (bidegree_project(J, f, 1, 1) - f).norm()
                assert abs(defect - ref) <= 1e-14 * max(1.0, f.norm())
                assert is_type_11(J, f) == is_pure_bidegree(J, f, 1, 1) == inside


def _eigenbasis_projection(J, a, p, q):
    """Oracle: expand in an explicit eigenbasis of wedge products.

    Builds all theta^{A} ^ conj(theta)^{B} monomials from an eigen-decomposition
    of J* and solves for the expansion coefficients; completely independent of
    the Lagrange-projector route used by the library.
    """
    w, V = np.linalg.eig(J.jstar)
    plus = [form_from_one_coeffs(6, V[:, i]) for i in range(6) if w[i].imag > 0]
    minus = [form_from_one_coeffs(6, V[:, i]) for i in range(6) if w[i].imag < 0]
    k = a.degree
    basis, tags = [], []
    for np_ in range(k + 1):
        nq = k - np_
        if np_ > 3 or nq > 3:
            continue
        for A in combinations(range(3), np_):
            for B in combinations(range(3), nq):
                factors = [plus[i] for i in A] + [minus[j] for j in B]
                f = factors[0]
                for fac in factors[1:]:
                    f = wedge(f, fac)
                basis.append(f.coeffs)
                tags.append((np_, nq))
    M = np.column_stack(basis)
    x = np.linalg.solve(M, a.coeffs) if M.shape[0] == M.shape[1] else np.linalg.lstsq(M, a.coeffs, rcond=None)[0]
    out = np.zeros_like(a.coeffs)
    for coef, tag, col in zip(x, tags, basis):
        if tag == (p, q):
            out = out + coef * col
    return Form(6, k, out)


def test_bidegree_against_eigenbasis_oracle():
    rng = np.random.default_rng(4)
    for J in (s3s3_J(), random_acs(rng)):
        for k in (2, 3):
            a = random_form(rng, 6, k)
            for p, q in bidegrees(6, k):
                lib = bidegree_project(J, a, p, q)
                orc = _eigenbasis_projection(J, a, p, q)
                assert forms_close(lib, orc, tol=1e-10)


def test_s3s3_30_projection_of_e123():
    # headline oracle case from the catalog structure
    J = s3s3_J()
    a = basis_form(6, (1, 2, 3))
    lib = bidegree_project(J, a, 3, 0)
    orc = _eigenbasis_projection(J, a, 3, 0)
    assert forms_close(lib, orc, tol=1e-12)
    assert lib.norm() > 0.01


def test_bidegree_rejects_mismatch():
    J = torus_J()
    with pytest.raises(ValueError):
        bidegree_project(J, basis_form(6, (1, 2)), 2, 1)


def test_d_split_flat_integrable():
    alg = catalog("torus6").algebra()
    J = torus_J()
    rng = np.random.default_rng(5)
    a = random_form(rng, 6, 2)
    a11 = bidegree_project(J, a, 1, 1)
    parts = d_split(alg, J, a11, 1, 1)
    for f in parts:
        assert f.norm() < 1e-12  # abelian: d = 0 outright


def test_d_split_sum_and_nonintegrability():
    alg = catalog("s3s3").algebra()
    J = s3s3_J()
    rng = np.random.default_rng(6)
    # completeness on random pure-bidegree forms
    from nkvol.frame_manifold import d_invariant

    for k, (p, q) in [(1, (0, 1)), (2, (1, 1)), (2, (2, 0)), (3, (2, 1))]:
        a = bidegree_project(J, random_form(rng, 6, k), p, q)
        d21, d10, d01, dm12 = d_split(alg, J, a, p, q)
        total = d21 + d10 + d01 + dm12
        assert forms_close(total, d_invariant(alg, a), tol=1e-10)
    # the (2,-1) component on a (0,1) form is the integrability obstruction:
    # nonzero on s3s3
    theta_bar = J.frame().theta_bar(0)
    d21, *_ = d_split(alg, J, theta_bar, 0, 1)
    assert d21.norm() > 1e-3


def test_d_split_rejects_mixed_input():
    alg = catalog("s3s3").algebra()
    J = s3s3_J()
    rng = np.random.default_rng(7)
    mixed = random_form(rng, 6, 2)
    with pytest.raises(ValueError):
        d_split(alg, J, mixed, 1, 1)
    with pytest.raises(ValueError):
        d_split(alg, J, mixed)  # no declared bidegree: detection must fail too


def test_d_split_detects_pure_bidegree():
    alg = catalog("s3s3").algebra()
    J = s3s3_J()
    rng = np.random.default_rng(17)
    a = bidegree_project(J, random_form(rng, 6, 2), 1, 1)
    auto = d_split(alg, J, a)
    explicit = d_split(alg, J, a, 1, 1)
    for x, y in zip(auto, explicit):
        assert forms_close(x, y)


def test_d_split_out_of_range_components_vanish():
    alg = catalog("s3s3").algebra()
    J = s3s3_J()
    rng = np.random.default_rng(8)
    a30 = bidegree_project(J, random_form(rng, 6, 3), 3, 0)
    d21, d10, d01, dm12 = d_split(alg, J, a30, 3, 0)
    assert d21.norm() == 0.0  # (5,-1) target does not exist
    assert d10.norm() == 0.0  # (4, 0) target does not exist
    assert d01.degree == 4 and dm12.degree == 4


def test_one_form_10_leibniz_targets():
    # on a (1,0) 1-form the only negative-side target is (0,2)
    alg = catalog("s3s3").algebra()
    J = s3s3_J()
    theta = frame_theta(J.frame(), 0)
    d21, d10, d01, dm12 = d_split(alg, J, theta, 1, 0)
    assert d21.norm() == 0.0  # (3,-1) does not exist
    for f, (p, q) in [(d10, (2, 0)), (d01, (1, 1)), (dm12, (0, 2))]:
        assert forms_close(bidegree_project(J, f, p, q), f, tol=1e-11)


def test_frame_duality_residual():
    rng = np.random.default_rng(9)
    for J in (torus_J(), s3s3_J(), random_acs(rng)):
        assert frame_check_residual(J.frame()) < 1e-12


def test_j_multiplicative_types():
    J = s3s3_J()
    rng = np.random.default_rng(10)
    a = random_form(rng, 6, 3)
    for p, q in bidegrees(6, 3):
        part = bidegree_project(J, a, p, q)
        assert forms_close(j_multiplicative(J, part), (1j) ** (p - q) * part, tol=1e-10)


def test_project_to_acs_near_identity_on_acs():
    J = s3s3_J().matrix
    again = project_to_acs(J + 1e-13 * np.ones((6, 6)))
    assert np.max(np.abs(again - J)) < 1e-10


def test_frame_writer_inverts_reader():
    rng = np.random.default_rng(5)
    for _ in range(5):
        fr = random_acs(rng).frame()
        a = random_form(rng, 6, 2)
        assert forms_close(frame_two_form(fr, fr.components(a)), a, tol=1e-12)
        b = random_form(rng, 6, 1)
        assert np.max(np.abs(fr.components(b) @ fr.coframe - b.coeffs)) < 1e-12


def test_tcheck_dual_to_theta():
    # tcheck^b has the (v, v) block EPS3[b]; theta^a ^ tcheck^b = delta_ab theta^123
    rng = np.random.default_rng(6)
    fr = random_acs(rng).frame()
    top = fr.theta_top()
    for b in range(3):
        X = np.zeros((6, 6), dtype=np.complex128)
        X[:3, :3] = EPS3[b]
        tcheck = frame_two_form(fr, X)
        for a in range(3):
            expected = top if a == b else zero_form(6, 3)
            assert forms_close(wedge(frame_theta(fr, a), tcheck), expected, tol=1e-12)
