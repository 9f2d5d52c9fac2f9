"""Skew-torsion criterion, C-map consistency, conformal recovery, Alt_12 ranks."""

import numpy as np
import pytest

from nkvol.multilinear import Form, basis_form, definite_sign, wedge
from nkvol.frame_manifold import catalog
from nkvol.acs import AlmostComplexStructure
from nkvol.nijenhuis import nijenhuis_via_brackets, rho_skew_coefficient
from nkvol.nk_su3 import _skew_part, solve_Omega
from nkvol.hermitian_torsion import (
    _conformal_map,
    _conformal_system,
    _hermitian_basis,
    _hermitian_form_coeffs,
    _orient_positive,
    HermitianForm,
    alt12_analysis,
    conformal_solve,
    conformal_stack,
    hermitian_metric,
    norm30_sq,
    torsion_criterion,
)

from helpers import (bidegree_project, c_map, c_map_trilinear, candidate_coeffs, flat_omega,
                     flat_su3_forms, forms_close, frame_from_thetas, frame_theta, nk_fixture,
                     norm30_wedge_route, product_omega, random_acs, random_valid_algebra, s3s3,
                     torus)


def test_norm30_flat_calibration():
    # |dz1^dz2^dz3| = 1 against omega0 = (i/2) sum dz^dzbar = e^12+e^34+e^56
    dz = lambda k: basis_form(6, (2 * k + 1,)) + 1j * basis_form(6, (2 * k + 2,))
    Omega0 = wedge(wedge(dz(0), dz(1)), dz(2))
    assert abs(norm30_wedge_route(flat_omega(), Omega0) - 1.0) < 1e-14
    # an overflowed (NaN) norm fails the reality gate instead of passing it
    with pytest.raises(ValueError, match="non-finite"):
        norm30_wedge_route(flat_omega(), Form(6, 3, np.full(20, np.nan)))


def test_hermitian_metric_s3s3_product():
    alg, J = s3s3()
    g = HermitianForm(J.frame(), product_omega()).metric
    assert np.max(np.abs(g.matrix - np.eye(6))) < 1e-13


def test_torsion_criterion_torus_trivial():
    alg, J = torus()
    # with the stored coframe action J e^1 = e^2, the positive Hermitian form
    # carries the opposite sign: omega0 = -(e^12 + e^34 + e^56)
    rep = torsion_criterion(nijenhuis_via_brackets(alg, J), HermitianForm(J.frame(), -1.0 * flat_omega()))
    assert rep.admits_connection
    assert rep.rho_norm == 0.0
    assert rep.skewness_residual == 0.0


def test_torsion_criterion_s3s3_equal_scale():
    alg, J = s3s3()
    nij, h = nijenhuis_via_brackets(alg, J), HermitianForm(J.frame(), product_omega())
    rep = torsion_criterion(nij, h)
    # recorded fixture: the equal-scale product structure admits the connection
    assert rep.admits_connection
    assert rep.skewness_residual <= 1e-12
    assert rep.rho_norm > 0.05
    assert (rho_skew_coefficient(h.block, nij.matrix) * nij.frame.theta_top()).norm() > 0.05


def test_torsion_criterion_s3s3_anisotropic():
    # the J-compatible anisotropic analogue of a (1,1,5)-pattern metric
    alg, J = s3s3()
    rep = torsion_criterion(nijenhuis_via_brackets(alg, J),
                            HermitianForm(J.frame(), product_omega(scales=(1.0, 1.0, 5.0))))
    assert not rep.admits_connection
    assert rep.skewness_residual > 0.01 * rep.rho_norm


def test_torsion_criterion_rejects_nonpositive():
    # the criterion takes a HermitianForm: its constructor is the gate, and the
    # criterion rejects a form gated for another J
    alg, J = s3s3()
    with pytest.raises(ValueError, match="omega not positive"):
        HermitianForm(J.frame(), -1.0 * product_omega())
    with pytest.raises(ValueError, match="real \\(1,1\\)-form"):
        HermitianForm(J.frame(), flat_omega())  # not (1,1) for this J
    _, Jt = torus()
    with pytest.raises(ValueError, match="another J"):
        torsion_criterion(nijenhuis_via_brackets(alg, J), HermitianForm(Jt.frame(), -1.0 * flat_omega()))
    # and one read in another frame of the same J: its frame block holds in that frame only
    other = frame_from_thetas(J, 2.0 * J.frame().theta_coeffs)
    with pytest.raises(ValueError, match="another J or frame"):
        torsion_criterion(nijenhuis_via_brackets(alg, J), HermitianForm(other, product_omega()))


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
    rho = -c_map_trilinear(HermitianForm(J.frame(), w).block @ nij.matrix.T)
    T = c_map_trilinear(C)
    assert np.max(np.abs(rho + T)) < 1e-12


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
    assert rep.positive
    assert rep.normalizable
    # the recovered direction is the equal-scale product form
    w0 = product_omega()
    ratios = []
    for i in range(15):
        if abs(w0.coeffs[i]) > 1e-9:
            ratios.append((candidate_coeffs(rep)[i] / w0.coeffs[i]).real)
    ratios = np.array(ratios)
    assert np.max(np.abs(ratios - ratios[0])) < 1e-10 * abs(ratios[0])


def test_conformal_solve_normalization_gauge():
    alg, J = s3s3()
    nij = nijenhuis_via_brackets(alg, J)
    rep = conformal_solve(nij)
    h = rep.form(nij.frame)
    p30 = rho_skew_coefficient(h.block, nij.matrix) * nij.frame.theta_top()
    assert abs(norm30_wedge_route(h.omega, p30) - 1.0) < 1e-12


def test_conformal_solve_plant_and_recover():
    alg, J = s3s3()
    planted = 2.7 * product_omega()
    nij = nijenhuis_via_brackets(alg, J)
    assert torsion_criterion(nij, HermitianForm(J.frame(), planted)).admits_connection
    rep = conformal_solve(nij)
    ratios = []
    for i in range(15):
        if abs(planted.coeffs[i]) > 1e-9:
            ratios.append((candidate_coeffs(rep)[i] / planted.coeffs[i]).real)
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
    assert rep.positive                         # but still a usable metric seed


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
    # the 18-row system of traceless parts against the 54 rows of the non-skew part of the
    # trilinear of c_map on each Hermitian basis form: an isometry, so the Gram matrices agree
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
        S = _conformal_system(nij.matrix)
        assert S.shape == (18, 9) and L.shape == (54, 9)
        assert np.max(np.abs(S.T @ S - L.T @ L)) <= 1e-13 * max(1.0, np.max(np.abs(L.T @ L)))


def test_conformal_map_matches_system():
    # the cached linear map of the 18 real entries of N* against the closed-form system
    rng = np.random.default_rng(9)
    for _ in range(4):
        M = nijenhuis_via_brackets(random_valid_algebra(rng), random_acs(rng)).matrix
        ref = _conformal_system(M)
        mapped = (np.concatenate([M.real, M.imag]).ravel() @ _conformal_map()).reshape(18, 9)
        assert np.max(np.abs(mapped - ref)) <= 1e-15 * max(1.0, np.max(np.abs(ref)))


def test_hermitian_metric_checks_positivity_once(monkeypatch):
    alg, J = s3s3()
    g = HermitianForm(J.frame(), product_omega()).metric.matrix
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda G: calls.append(1) or eigvalsh(G))
    hermitian_metric(J.frame(), g)
    assert len(calls) == 1
    with pytest.raises(ValueError, match="omega not positive"):
        hermitian_metric(J.frame(), -g)
    assert len(calls) == 2


def random_hermitian(rng):
    """A positive definite Hermitian matrix and a unitary one."""
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return A @ A.conj().T + 0.1 * np.eye(3), np.linalg.qr(A)[0]


def frame_norm30_sq(fr, omega, P):
    """`norm30_sq` of P in the frame fr: c = P(v_1, v_2, v_3), det H from omega's block iH."""
    c = P.evaluate([fr.v(0), fr.v(1), fr.v(2)])
    return norm30_sq(c, np.linalg.det(-1j * fr.components(omega)[:3, 3:]).real)


def test_frame_norm_matches_wedge_route():
    # |P|^2 = |c|^2 / (8 det H) for omega = i sum H_ab theta^a ^ conj theta^b and
    # P = c theta^123, against the wedge-product definition (`norm30_wedge_route`)
    rng = np.random.default_rng(31)
    for _ in range(6):
        J = random_acs(rng)
        fr = J.frame()
        H, _ = random_hermitian(rng)
        c = complex(rng.standard_normal(), rng.standard_normal())
        omega = Form(6, 2, _hermitian_form_coeffs(fr.theta_coeffs, H))
        ref = norm30_wedge_route(omega, c * fr.theta_top())
        assert abs(norm30_sq(c, np.linalg.det(H).real) - ref) <= 1e-13 * ref
        assert abs(frame_norm30_sq(fr, omega, c * fr.theta_top()) - ref) <= 1e-13 * ref
    # the stack's |P|^2 of its candidate, on structures where that is positive
    mp = catalog("s3s3_perturbed", seed=7)
    for alg, J in ((mp.algebra(), AlmostComplexStructure(mp.J)), s3s3()):
        fr = J.frame()
        M = nijenhuis_via_brackets(alg, J, frame=fr).matrix
        st = conformal_stack(M, fr.theta_coeffs)
        assert st.positive
        omega = Form(6, 2, candidate_coeffs(st))
        P = rho_skew_coefficient(fr.components(omega)[:3, 3:], M) * fr.theta_top()
        ref = norm30_wedge_route(omega, P)
        assert abs(st.n2 - ref) <= 1e-13 * ref
    # the flat model in a frame of its J (dz_k = e^{2k-1} + i e^{2k} of type (1,0)), the
    # fixture's Omega3 and the Omega that `solve_Omega` finds there: all of unit norm
    omega0, Omega0 = flat_su3_forms()
    flat = AlmostComplexStructure(np.kron(np.eye(3), [[0.0, -1.0], [1.0, 0.0]]))
    alg, J, omega, Omega3 = nk_fixture()
    nij = nijenhuis_via_brackets(alg, J)
    solved = solve_Omega(alg, nij, HermitianForm(J.frame(), omega))
    for fr, w, P in ((flat.frame(), omega0, Omega0), (nij.frame, omega, Omega3),
                     (nij.frame, omega, solved.Omega)):
        ref = norm30_wedge_route(w, P)
        assert abs(ref - 1.0) <= 1e-10
        assert abs(frame_norm30_sq(fr, w, P) - ref) <= 1e-13


def test_positivity_from_hermitian_matrix_matches_metric():
    # positive, negative, indefinite, rank-deficient and nearly rank-deficient H: the
    # stack's decision against the gate of HermitianForm on omega read from its coefficients.
    # Both are the definite gate on the eigenvalues of its metric, so a rank-deficient H
    # is neither sign whatever its rounding.  The thin H, with eigenvalues 1, 1e-11, 1e-11,
    # passes the gate on H itself, while its metric in a frame [theta; conj theta] that is
    # not unitary fails it in each draw here: both decisions must follow the metric.
    # Every metric that passes is oriented by i det Theta, J's orientation, also where
    # omega^3 = 6 i det H theta^123 ^ conj theta^123 is rounding: with eigenvalues 1, 1e-10,
    # 1e-10 the metric passes in each draw, and the sign of omega^3 differs in the first
    rng = np.random.default_rng(32)
    thin_failures = 0
    for _ in range(4):
        J = random_acs(rng)
        fr = J.frame()
        orientation = 1 if (1j * np.linalg.det(fr.coframe)).real > 0 else -1
        P, U = random_hermitian(rng)
        indefinite = U @ np.diag([1.0, -0.5, 2.0]) @ U.conj().T
        degenerate = U @ np.diag([1.0, 1e-15, 1e-15]) @ U.conj().T
        thin = U @ np.diag([1.0, 1e-11, 1e-11]) @ U.conj().T
        for H, sign in ((P, 1.0), (-P, -1.0), (indefinite, 0.0), (degenerate, 0.0), (thin, None)):
            oriented, _, positive, det, _ = _orient_positive(H, fr.theta_coeffs)
            omega = Form(6, 2, _hermitian_form_coeffs(fr.theta_coeffs, H))
            if sign is None:  # whatever the metric's gate says
                assert definite_sign(np.linalg.eigvalsh(H)) == 1
                try:
                    HermitianForm(J.frame(), omega)
                except ValueError:
                    sign, thin_failures = 0.0, thin_failures + 1
                else:
                    sign = 1.0
            assert bool(positive) == (sign != 0.0)
            for s in (1.0, -1.0):
                if s == sign:
                    assert HermitianForm(J.frame(), s * omega).metric.orientation == orientation
                else:
                    with pytest.raises(ValueError, match="not positive"):
                        HermitianForm(J.frame(), s * omega)
            if positive:
                assert np.array_equal(oriented, sign * H)
                assert abs(det - np.linalg.det(oriented).real) <= 1e-12 * det
        thin10 = U @ np.diag([1.0, 1e-10, 1e-10]) @ U.conj().T
        assert _orient_positive(thin10, fr.theta_coeffs)[2]
        omega = Form(6, 2, _hermitian_form_coeffs(fr.theta_coeffs, thin10))
        assert HermitianForm(J.frame(), omega).metric.orientation == orientation
        # where omega^3 is far from rounding it gives the same orientation
        w = Form(6, 2, _hermitian_form_coeffs(fr.theta_coeffs, P))
        assert np.sign(wedge(wedge(w, w), w).coeffs[0].real) == orientation
    assert thin_failures == 4  # each thin H fails the metric's gate: the case discriminates


def test_candidate_positivity_agrees_with_the_metric_gate():
    # the stack decides on the metric of its H, HermitianForm on the metric of the H it
    # reads back from omega's coefficients: on random structures the two agree,
    # rank-deficient candidates included (these 300 draws hold 12 whose sign of rounding
    # differs between H and the metric)
    rng = np.random.default_rng(0)
    for _ in range(300):
        alg, J = random_valid_algebra(rng), random_acs(rng)
        rep = conformal_solve(nijenhuis_via_brackets(alg, J))
        try:
            HermitianForm(J.frame(), Form(6, 2, candidate_coeffs(rep)))
        except ValueError:
            assert not rep.positive
        else:
            assert rep.positive
