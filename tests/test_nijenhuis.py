"""Two-route Nijenhuis agreement, the volume density, and the Cartan identity."""

import numpy as np
import pytest

from nkvol.multilinear import form_from_one_coeffs
from nkvol.frame_manifold import CoframeAlgebra
from nkvol.acs import bidegree_project
from nkvol.nijenhuis import (
    NijenhuisTensor,
    cartan_compatibility,
    nijenhuis_via_brackets,
    nijenhuis_via_d,
    volume_form,
)

from helpers import (forms_close, frame_from_thetas, nijenhuis_apply, nijenhuis_in_frame, product_omega,
                     random_acs, random_form, random_valid_algebra, s3s3, torus)


def test_torus_vanishes_both_routes():
    alg, J = torus()
    assert np.max(np.abs(nijenhuis_via_brackets(alg, J).matrix)) == 0.0
    assert np.max(np.abs(nijenhuis_via_d(alg, J).matrix)) == 0.0


def test_any_J_on_abelian_vanishes():
    alg = CoframeAlgebra(np.zeros((6, 6, 6)))
    rng = np.random.default_rng(0)
    for _ in range(5):
        J = random_acs(rng)
        assert np.max(np.abs(nijenhuis_via_brackets(alg, J).matrix)) < 1e-14


def test_s3s3_nondegenerate_fixture():
    alg, J = s3s3()
    nij = nijenhuis_via_brackets(alg, J)
    assert nij.nondegenerate
    assert abs(np.linalg.det(nij.matrix)) > 0.01
    # in the frame theta^k = e^k - i e^{k+3} the map is -((1-i)/4) Id
    rows = np.zeros((3, 6), dtype=complex)
    for k in range(3):
        rows[k, k] = 1.0
        rows[k, k + 3] = -1j
    fr = frame_from_thetas(J, rows)
    M = nijenhuis_via_brackets(alg, J, frame=fr).matrix
    assert np.max(np.abs(M - (-(1 - 1j) / 4.0) * np.eye(3))) < 1e-13
    # frame-independent density fixture: Psi = 1/64 exactly
    assert abs(volume_form(nij).psi - 1.0 / 64.0) < 1e-14


def test_two_routes_agree_s3s3():
    alg, J = s3s3()
    a = nijenhuis_via_brackets(alg, J)
    b = nijenhuis_via_d(alg, J, frame=a.frame)
    assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12


def test_two_routes_agree_random():
    rng = np.random.default_rng(42)
    hits = 0
    for _ in range(100):
        alg = random_valid_algebra(rng)
        J = random_acs(rng)
        fr = J.frame()
        a = nijenhuis_via_brackets(alg, J, frame=fr)
        b = nijenhuis_via_d(alg, J, frame=fr)
        scale = max(1.0, np.max(np.abs(a.matrix)))
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-11 * scale
        if np.max(np.abs(a.matrix)) > 1e-8:
            hits += 1
    assert hits > 50  # the sweep actually exercises nonzero tensors


def test_basis_change_covariance():
    alg, J = s3s3()
    rng = np.random.default_rng(3)
    nij = nijenhuis_via_brackets(alg, J)
    for _ in range(10):
        T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rows = T @ nij.frame.theta_coeffs
        fr2 = frame_from_thetas(J, rows)
        direct = nijenhuis_via_brackets(alg, J, frame=fr2).matrix
        transported = nijenhuis_in_frame(nij, fr2)
        assert np.max(np.abs(direct - transported)) < 1e-10 * max(1.0, np.max(np.abs(direct)))


def test_volume_zero_iff_degenerate():
    alg, J = torus()
    nij = nijenhuis_via_brackets(alg, J)
    vd = volume_form(nij)
    assert vd.psi == 0.0
    assert not nij.nondegenerate


def test_volume_frame_independent():
    alg, J = s3s3()
    rng = np.random.default_rng(4)
    base = volume_form(nijenhuis_via_brackets(alg, J))
    assert base.psi > 0
    for _ in range(20):
        T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        if abs(np.linalg.det(T)) < 1e-2:
            continue
        fr2 = frame_from_thetas(J, T @ J.frame().theta_coeffs)
        other = volume_form(nijenhuis_via_brackets(alg, J, frame=fr2))
        assert forms_close(other.vol_form, base.vol_form, tol=1e-10)
        assert abs(other.psi - base.psi) < 1e-10 * base.psi


def test_volume_real_positive_orientation():
    alg, J = s3s3()
    vd = volume_form(nijenhuis_via_brackets(alg, J))
    assert np.max(np.abs(vd.vol_form.coeffs.imag)) <= 1e-12 * max(1.0, vd.vol_form.norm())
    dens = vd.vol_form.coeffs[0].real
    assert dens * vd.orientation >= 0
    assert vd.psi >= 0


def test_volume_scaling_exponent():
    # N* -> c N* scales Psi by |c|^6 (the measured value *is* the fixture)
    alg, J = s3s3()
    nij = nijenhuis_via_brackets(alg, J)
    base = volume_form(nij)
    rng = np.random.default_rng(5)
    for _ in range(5):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        scaled = NijenhuisTensor(nij.frame, c * nij.matrix, route=nij.route)
        ratio = volume_form(scaled).psi / base.psi
        assert abs(ratio - abs(c) ** 6) < 1e-9 * max(1.0, abs(c) ** 6)


def test_psi_metric_free_and_route_free():
    alg, J = s3s3()
    a = volume_form(nijenhuis_via_brackets(alg, J)).psi
    b = volume_form(nijenhuis_via_d(alg, J)).psi
    assert abs(a - b) < 1e-12 * a


def test_cartan_identity_torus():
    alg, J = torus()
    rng = np.random.default_rng(6)
    w = bidegree_project(J, random_form(rng, 6, 2), 1, 1)
    assert cartan_compatibility(alg, nijenhuis_via_brackets(alg, J), w) == 0.0


def test_cartan_identity_s3s3_product_omega():
    alg, J = s3s3()
    assert cartan_compatibility(alg, nijenhuis_via_brackets(alg, J), product_omega()) < 1e-10


def test_cartan_identity_random_sweep():
    rng = np.random.default_rng(7)
    count = 0
    while count < 50:
        alg = random_valid_algebra(rng)
        J = random_acs(rng)
        w = bidegree_project(J, random_form(rng, 6, 2), 1, 1)
        if w.norm() < 1e-6:
            continue
        assert cartan_compatibility(alg, nijenhuis_via_brackets(alg, J), w) < 1e-10
        count += 1


def test_cartan_rejects_wrong_bidegree():
    alg, J = s3s3()
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError):
        cartan_compatibility(alg, nijenhuis_via_brackets(alg, J), random_form(rng, 6, 2))


def test_degenerate_exactly_when_d21_vanishes():
    # N* = 0 exactly when the (2,-1) derivative vanishes on (0,1)-forms
    for alg, J in (torus(), s3s3()):
        nij = nijenhuis_via_brackets(alg, J)
        fr = nij.frame
        from nkvol.frame_manifold import d_invariant

        d21_norm = max(
            bidegree_project(J, d_invariant(alg, fr.theta_bar(a)), 2, 0).norm()
            for a in range(3)
        )
        assert (np.max(np.abs(nij.matrix)) < 1e-13) == (d21_norm < 1e-13)


def test_apply_is_the_20_part_of_d():
    # N* written back as a form reproduces Pi^{2,0} d on (0,1)-forms, up to the
    # frozen route sign, for arbitrary (0,1)-forms
    from nkvol.conventions import NIJ_D_ROUTE_SIGN
    from nkvol.frame_manifold import d_invariant

    rng = np.random.default_rng(12)
    for _ in range(5):
        alg, J = random_valid_algebra(rng), random_acs(rng)
        nij = nijenhuis_via_brackets(alg, J)
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        zeta = form_from_one_coeffs(6, coeffs @ np.conj(nij.frame.theta_coeffs))
        d20 = bidegree_project(J, d_invariant(alg, zeta), 2, 0)
        assert forms_close(d20, NIJ_D_ROUTE_SIGN * nijenhuis_apply(nij, zeta), tol=1e-10)
