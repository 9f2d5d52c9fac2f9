"""Skew-torsion criterion, C-map consistency, conformal recovery, Alt_12 ranks."""

import numpy as np
import pytest

from nkvol.multilinear import Form, basis_form, wedge
from nkvol.frame_manifold import catalog
from nkvol.acs import AlmostComplexStructure, bidegree_project
from nkvol.nijenhuis import nijenhuis_via_brackets, rho_skew_coefficient
from nkvol.hermitian_torsion import (
    _conformal_map,
    _conformal_system,
    _hermitian_basis,
    _hermitian_form_coeffs,
    _orient_positive,
    _skew_part,
    alt12_analysis,
    c_map_trilinear,
    conformal_solve,
    conformal_stack,
    hermitian_metric,
    norm30_sq,
    torsion_criterion,
)

from helpers import (c_map, flat_omega, forms_close, frame_theta, product_omega, random_acs,
                     random_valid_algebra, s3s3, torus)


def test_norm30_flat_calibration():
    # |dz1^dz2^dz3| = 1 against omega0 = (i/2) sum dz^dzbar = e^12+e^34+e^56
    dz = lambda k: basis_form(6, (2 * k + 1,)) + 1j * basis_form(6, (2 * k + 2,))
    Omega0 = wedge(wedge(dz(0), dz(1)), dz(2))
    assert abs(norm30_sq(flat_omega(), Omega0) - 1.0) < 1e-14
    # an overflowed (NaN) norm fails the reality gate instead of passing it
    with pytest.raises(ValueError, match="non-finite"):
        norm30_sq(flat_omega(), Form(6, 3, np.full(20, np.nan)))


def test_hermitian_metric_s3s3_product():
    alg, J = s3s3()
    g = hermitian_metric(J, product_omega())
    assert np.max(np.abs(g.matrix - np.eye(6))) < 1e-13


def test_torsion_criterion_torus_trivial():
    alg, J = torus()
    # with the stored coframe action J e^1 = e^2, the positive Hermitian form
    # carries the opposite sign: omega0 = -(e^12 + e^34 + e^56)
    rep = torsion_criterion(nijenhuis_via_brackets(alg, J), -1.0 * flat_omega())
    assert rep.admits_connection
    assert rep.rho_norm == 0.0
    assert rep.skewness_residual == 0.0


def test_torsion_criterion_s3s3_equal_scale():
    alg, J = s3s3()
    rep = torsion_criterion(nijenhuis_via_brackets(alg, J), product_omega())
    # recorded fixture: the equal-scale product structure admits the connection
    assert rep.admits_connection
    assert rep.skewness_residual <= 1e-12
    assert rep.rho_norm > 0.05
    assert rep.lambda30_component.norm() > 0.05


def test_torsion_criterion_s3s3_anisotropic():
    # the J-compatible anisotropic analogue of a (1,1,5)-pattern metric
    alg, J = s3s3()
    rep = torsion_criterion(nijenhuis_via_brackets(alg, J), product_omega(scales=(1.0, 1.0, 5.0)))
    assert not rep.admits_connection
    assert rep.skewness_residual > 0.01 * rep.rho_norm


def test_torsion_criterion_rejects_nonpositive():
    alg, J = s3s3()
    nij = nijenhuis_via_brackets(alg, J)
    with pytest.raises(ValueError):
        torsion_criterion(nij, -1.0 * product_omega())
    with pytest.raises(ValueError):
        torsion_criterion(nij, flat_omega())  # not (1,1) for this J


def test_c_map_zero_when_integrable():
    alg, J = torus()
    C = c_map(alg, J, bidegree_project(J, flat_omega(), 1, 1))
    assert np.max(np.abs(C)) < 1e-14


def test_c_map_matches_rho():
    # internal consistency: the C-matrix reproduces the criterion trilinear
    # under the fixed leg-ordering convention rho[a,b,c] = -T_C[a,b,c]
    alg, J = s3s3()
    w = product_omega(scales=(1.3, 0.8, 1.1))
    nij = nijenhuis_via_brackets(alg, J)
    C = c_map(alg, J, w, nij=nij)
    rep = torsion_criterion(nij, w)
    T = c_map_trilinear(C)
    assert np.max(np.abs(rep.rho + T)) < 1e-12


def test_c_map_linear():
    alg, J = s3s3()
    a = product_omega(scales=(1.0, 2.0, 0.5))
    b = product_omega(scales=(0.3, 0.3, 1.7))
    Ca = c_map(alg, J, a)
    Cb = c_map(alg, J, b)
    Cab = c_map(alg, J, a + b)
    assert np.max(np.abs(Cab - Ca - Cb)) < 1e-12


def test_c_map_injective_on_s3s3():
    alg, J = s3s3()
    nij = nijenhuis_via_brackets(alg, J)
    # rank of the 9x9 complex map A -> A M^T equals 3 rank(M) = 9
    M = np.kron(np.eye(3), nij.matrix)
    assert np.linalg.matrix_rank(M, tol=1e-10) == 9


def test_conformal_solve_s3s3_unique_positive():
    alg, J = s3s3()
    rep = conformal_solve(nijenhuis_via_brackets(alg, J))
    assert rep.solution_dimension == 1
    assert rep.candidate_positive
    assert rep.normalized_omega is not None
    # the recovered direction is the equal-scale product form
    w0 = product_omega()
    ratios = []
    for i in range(15):
        if abs(w0.coeffs[i]) > 1e-9:
            ratios.append((rep.candidate.coeffs[i] / w0.coeffs[i]).real)
    ratios = np.array(ratios)
    assert np.max(np.abs(ratios - ratios[0])) < 1e-10 * abs(ratios[0])


def test_conformal_solve_normalization_gauge():
    alg, J = s3s3()
    nij = nijenhuis_via_brackets(alg, J)
    rep = conformal_solve(nij)
    crit = torsion_criterion(nij, rep.normalized_omega)
    assert abs(norm30_sq(rep.normalized_omega, crit.lambda30_component) - 1.0) < 1e-12


def test_conformal_solve_plant_and_recover():
    alg, J = s3s3()
    planted = 2.7 * product_omega()
    nij = nijenhuis_via_brackets(alg, J)
    assert torsion_criterion(nij, planted).admits_connection
    rep = conformal_solve(nij)
    ratios = []
    for i in range(15):
        if abs(planted.coeffs[i]) > 1e-9:
            ratios.append((rep.candidate.coeffs[i] / planted.coeffs[i]).real)
    ratios = np.array(ratios)
    assert np.max(np.abs(ratios - ratios.mean())) < 1e-10 * abs(ratios.mean())


def test_conformal_solve_torus_full_space():
    alg, J = torus()
    rep = conformal_solve(nijenhuis_via_brackets(alg, J))
    assert rep.solution_dimension == 9


def test_conformal_solve_perturbed_least_squares():
    m = catalog("s3s3_perturbed", seed=7)
    alg, J = m.algebra(), AlmostComplexStructure(m.J)
    rep = conformal_solve(nijenhuis_via_brackets(alg, J))
    assert rep.solution_dimension == 0          # strict solution gone
    assert rep.candidate_residual > 1e-6        # visibly off
    assert rep.candidate_positive               # but still a usable metric seed


def test_alt12_ranks():
    _, J = s3s3()
    rep = alt12_analysis(J)
    assert rep.rank_full == 90
    assert rep.rank_hermitian == 54
    assert rep.span_with_cokernel == 72
    assert rep.target_dimension == 72


def test_alt12_ranks_basis_independent():
    rng = np.random.default_rng(11)
    for _ in range(3):
        J = random_acs(rng)
        rep = alt12_analysis(J)
        assert (rep.rank_full, rep.rank_hermitian, rep.span_with_cokernel,
                rep.target_dimension) == (90, 54, 72, 72)


def test_conformal_system_matches_c_map():
    # the closed-form system against c_map applied to each Hermitian basis form
    rng = np.random.default_rng(8)
    for _ in range(4):
        alg, J = random_valid_algebra(rng), random_acs(rng)
        nij = nijenhuis_via_brackets(alg, J)
        fr = nij.frame
        B = _hermitian_basis(fr.coframe)
        # h_1 = E_11 and h_8 = i (E_23 - E_32)/sqrt 2: i theta^1 ^ conj theta^1 and
        # (theta^3 ^ conj theta^2 - theta^2 ^ conj theta^3)/sqrt 2
        assert forms_close(Form(6, 2, B[:, 0]), 1j * wedge(frame_theta(fr, 0), fr.theta_bar(0)))
        assert forms_close(Form(6, 2, np.sqrt(2.0) * B[:, 8]), wedge(frame_theta(fr, 2), fr.theta_bar(1))
                           - wedge(frame_theta(fr, 1), fr.theta_bar(2)))
        cols = []
        for coeffs in B.T:
            T = c_map_trilinear(c_map(alg, J, Form(6, 2, coeffs), nij=nij))
            complement = (T - _skew_part(T)).ravel()
            cols.append(np.concatenate([complement.real, complement.imag]))
        L = np.column_stack(cols)
        assert np.max(np.abs(_conformal_system(nij.matrix) - L)) <= 1e-13 * max(1.0, np.max(np.abs(L)))


def test_conformal_map_matches_system():
    # the cached linear map of the 18 real entries of N* against the closed-form system
    rng = np.random.default_rng(9)
    for _ in range(4):
        M = nijenhuis_via_brackets(random_valid_algebra(rng), random_acs(rng)).matrix
        ref = _conformal_system(M)
        mapped = (np.concatenate([M.real, M.imag]).ravel() @ _conformal_map()).reshape(54, 9)
        assert np.max(np.abs(mapped - ref)) <= 1e-15 * max(1.0, np.max(np.abs(ref)))


def test_hermitian_metric_checks_positivity_once(monkeypatch):
    alg, J = s3s3()
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda G: calls.append(1) or eigvalsh(G))
    hermitian_metric(J, product_omega())
    assert len(calls) == 1
    with pytest.raises(ValueError, match="omega not positive"):
        hermitian_metric(J, -1.0 * product_omega())
    assert len(calls) == 2


def random_hermitian(rng):
    """A positive definite Hermitian matrix and a unitary one."""
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return A @ A.conj().T + 0.1 * np.eye(3), np.linalg.qr(A)[0]


def test_frame_norm_matches_wedge_route():
    # |P|^2 = |c|^2 / (8 det H) for omega = i sum H_ab theta^a ^ conj theta^b and
    # P = c theta^123, against the wedge-product formula of norm30_sq
    rng = np.random.default_rng(31)
    for _ in range(6):
        J = random_acs(rng)
        fr = J.frame()
        H, _ = random_hermitian(rng)
        c = complex(rng.standard_normal(), rng.standard_normal())
        omega = Form(6, 2, _hermitian_form_coeffs(fr.theta_coeffs, H))
        ref = norm30_sq(omega, c * fr.theta_top())
        assert abs(abs(c) ** 2 / (8.0 * np.linalg.det(H).real) - ref) <= 1e-13 * ref
    # the stack's |P|^2 of its candidate, on structures where that is positive
    mp = catalog("s3s3_perturbed", seed=7)
    for alg, J in ((mp.algebra(), AlmostComplexStructure(mp.J)), s3s3()):
        fr = J.frame()
        M = nijenhuis_via_brackets(alg, J, frame=fr).matrix
        st = conformal_stack(M, fr.theta_coeffs)
        assert st.positive
        omega = Form(6, 2, st.candidate)
        P = rho_skew_coefficient(fr.components(omega)[:3, 3:], M) * fr.theta_top()
        ref = norm30_sq(omega, P)
        assert abs(st.n2 - ref) <= 1e-13 * ref


def test_positivity_from_hermitian_matrix_matches_metric():
    # positive, negative and indefinite H: the eigenvalue decision on H against
    # the positivity check of hermitian_metric on omega(., J.)
    rng = np.random.default_rng(32)
    for _ in range(4):
        J = random_acs(rng)
        fr = J.frame()
        P, U = random_hermitian(rng)
        indefinite = U @ np.diag([1.0, -0.5, 2.0]) @ U.conj().T
        for H, sign in ((P, 1.0), (-P, -1.0), (indefinite, 0.0)):
            oriented, definite, det = _orient_positive(H)
            assert bool(definite) == (sign != 0.0)
            omega = Form(6, 2, _hermitian_form_coeffs(fr.theta_coeffs, H))
            for s in (1.0, -1.0):
                if s == sign:
                    hermitian_metric(J, s * omega)
                else:
                    with pytest.raises(ValueError, match="not positive"):
                        hermitian_metric(J, s * omega)
            if definite:
                assert np.array_equal(oriented, sign * H)
                assert abs(det - np.linalg.det(oriented).real) <= 1e-12 * det
