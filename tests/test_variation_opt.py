"""Deformations, the first variation against finite differences, optimization."""

from functools import lru_cache

import numpy as np
import pytest

from nkvol.frame_manifold import CoframeAlgebra, Manifest, catalog, d_invariant
from nkvol.acs import AlmostComplexStructure
from nkvol.multilinear import Form
from nkvol.nijenhuis import nijenhuis_via_brackets
from nkvol.hermitian_torsion import HermitianForm, conformal_solve
from nkvol.variation_opt import (
    Deformation,
    criticality_residual_vector,
    criticality_test,
    deform_J,
    delta_basis,
    find_critical,
    psi_gradient,
)

from helpers import (FIXTURE, bidegree_project, candidate_coeffs, criticality_residuals,
                     delta_as_21_form, fd_deltas, fd_jacobian, frame_from_thetas, is_critical,
                     psi_gradient_analytic, psi_gradient_fd, psi_value, random_acs, random_form,
                     random_valid_algebra, s3s3, scalar_residual_vector, vanished_su2su2_search)


def nk_fixture():
    m = Manifest.load(FIXTURE)
    return m.algebra(), AlmostComplexStructure(m.J), m.omega


def su2r3():
    m = catalog("s3s3")
    c = m.structure_constants.copy()
    c[:, 3:, :] = 0.0
    c[:, :, 3:] = 0.0
    c[3:, :, :] = 0.0
    return CoframeAlgebra(c), AlmostComplexStructure(m.J)


def su2su2_asymmetric():
    m = catalog("s3s3")
    c = m.structure_constants.copy()
    c[3:, 3:, 3:] *= 2.0
    return CoframeAlgebra(c), AlmostComplexStructure(m.J)


# -- deform_J -------------------------------------------------------------------


def test_deform_zero_is_identity():
    _, J = s3s3()
    d0 = Deformation(np.zeros((3, 3), dtype=complex))
    assert deform_J(J, d0, 0.0) is J
    assert np.max(np.abs(deform_J(J, d0, 1.0).matrix - J.matrix)) < 1e-12


def test_deform_acs_identity_sweep():
    _, J = s3s3()
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = Deformation(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        t = 0.05 * rng.random()
        Jn = deform_J(J, d, t)
        assert np.max(np.abs(Jn.matrix @ Jn.matrix + np.eye(6))) < 1e-12


def test_deform_rejects_degenerate_graph():
    _, J = s3s3()
    with pytest.raises(ValueError):
        deform_J(J, Deformation(np.eye(3, dtype=complex)), 1.0)


def test_deform_reverse_returns_to_first_order():
    _, J = s3s3()
    rng = np.random.default_rng(1)
    d = Deformation(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    drev = Deformation(-d.matrix)
    fr = J.frame()
    naive = []
    for t in (1e-2, 5e-3, 2.5e-3):
        J1 = deform_J(J, d, t, frame=fr)
        # in the coframe transported with the deformation the reverse graph
        # inverts the chart exactly
        rows1 = fr.theta_coeffs - t * (d.matrix @ np.conj(fr.theta_coeffs))
        fr1 = frame_from_thetas(J1, rows1)
        back = deform_J(J1, drev, t, frame=fr1)
        assert np.max(np.abs(back.matrix - J.matrix)) < 1e-12
        # in a freshly chosen frame the return holds to first order in t
        naive.append(np.max(np.abs(deform_J(J1, drev, t).matrix - J.matrix)))
    assert naive[0] < 0.2  # the mismatch itself is O(t), small
    assert naive[1] < 0.7 * naive[0]
    assert naive[2] < 0.7 * naive[1]


# -- psi ------------------------------------------------------------------------


def test_psi_torus_zero():
    m = catalog("torus6")
    assert psi_value(m.algebra(), AlmostComplexStructure(m.J)) == 0.0


def test_psi_s3s3_regression():
    alg, J = s3s3()
    assert abs(psi_value(alg, J) - 1.0 / 64.0) < 1e-14


def test_psi_nk_fixture_regression():
    alg, J, _ = nk_fixture()
    assert abs(psi_value(alg, J) - np.sqrt(3.0) / 243.0) < 1e-13


def test_psi_invariant_under_commuting_rotations():
    alg, J = s3s3()
    base = psi_value(alg, J)
    for phi in (0.3, 1.1):
        c, s = np.cos(phi), np.sin(phi)
        S = np.block([[c * np.eye(3), s * np.eye(3)], [-s * np.eye(3), c * np.eye(3)]])
        assert np.max(np.abs(S @ J.matrix - J.matrix @ S)) < 1e-12
        Sinv = np.linalg.inv(S)
        cc = np.einsum("ia,ajk,jb,kc->ibc", Sinv, alg.structure_constants, S, S)
        cc = 0.5 * (cc - np.swapaxes(cc, 1, 2))
        alg2 = CoframeAlgebra(cc)
        assert abs(psi_value(alg2, J) - base) < 1e-12 * base


# -- gradient -------------------------------------------------------------------


def test_gradient_matches_fd_on_three_structures():
    # single frozen constant, 50 directions on each structure
    cases = [s3s3(), su2r3(), su2su2_asymmetric()]
    rng = np.random.default_rng(42)
    for alg, J in cases:
        omega = Form(6, 2, conformal_solve(nijenhuis_via_brackets(alg, J)).normalized_omega)
        worst = 0.0
        for _ in range(50):
            d = Deformation(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            ana = psi_gradient_analytic(alg, J, omega, d)
            fd = psi_gradient_fd(alg, J, d)
            if abs(fd) > 1e-7:
                worst = max(worst, abs(ana - fd) / abs(fd))
        assert worst < 1e-6, worst


def test_gradient_vanishes_at_critical_fixture():
    alg, J, omega = nk_fixture()
    for d in delta_basis():
        assert abs(psi_gradient_analytic(alg, J, omega, d)) < 1e-8
        assert abs(psi_gradient_fd(alg, J, d)) < 1e-8


def test_gradient_wrong_bidegree_contributes_zero():
    # the (3,1) part of d(delta-form) pairs to zero against a (1,1) form
    from nkvol.multilinear import wedge

    alg, J = s3s3()
    omega = Form(6, 2, conformal_solve(nijenhuis_via_brackets(alg, J)).normalized_omega)
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = Deformation(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        dform = delta_as_21_form(alg, J, omega, d)
        dd = d_invariant(alg, dform)
        part31 = bidegree_project(J, dd, 3, 1)
        assert abs(wedge(part31, omega).coeffs[0]) < 1e-13


def test_gradient_rejects_degenerate():
    m = catalog("torus6")
    alg, J = m.algebra(), AlmostComplexStructure(m.J)
    from nkvol.multilinear import basis_form, wedge as w

    omega0 = -1.0 * (w(basis_form(6, (1,)), basis_form(6, (2,)))
                     + w(basis_form(6, (3,)), basis_form(6, (4,)))
                     + w(basis_form(6, (5,)), basis_form(6, (6,))))
    with pytest.raises(ValueError):
        psi_gradient_analytic(alg, J, omega0, delta_basis()[0])


# -- criticality ------------------------------------------------------------------


def test_criticality_fixture():
    alg, J, omega = nk_fixture()
    rep = criticality_test(alg, nijenhuis_via_brackets(alg, J), HermitianForm(J.frame(), omega))
    assert is_critical(rep)
    assert rep.residual < 1e-12


def test_criticality_catalog_noncritical():
    alg, J = s3s3()
    nij = nijenhuis_via_brackets(alg, J)
    rep = criticality_test(alg, nij, conformal_solve(nij).form(nij.frame))
    assert rep.verdict == "non-critical"
    assert rep.residual > 1e-3


def test_criticality_torus_degenerate():
    m = catalog("torus6")
    rep = criticality_test(m.algebra(), nijenhuis_via_brackets(m.algebra(), AlmostComplexStructure(m.J)))
    assert rep.verdict == "degenerate"


def test_criticality_takes_the_callers_omega():
    # a nondegenerate structure with a normalizable candidate still needs its omega
    # from the caller: criticality_test picks none of its own
    alg, J = s3s3()
    with pytest.raises(ValueError, match="no positive Hermitian candidate omega at this structure"):
        criticality_test(alg, nijenhuis_via_brackets(alg, J))


def test_criticality_equals_gradient_vanishing():
    # the biconditional, over the catalog and seeded perturbations
    structures = []
    alg, J = s3s3()
    structures.append((alg, J))
    algf, Jf, _ = nk_fixture()
    structures.append((algf, Jf))
    for seed in (1, 5, 9):
        mp = catalog("s3s3_perturbed", seed=seed)
        structures.append((mp.algebra(), AlmostComplexStructure(mp.J)))
    for alg_, J_ in structures:
        nij = nijenhuis_via_brackets(alg_, J_)
        omega = Form(6, 2, conformal_solve(nij).normalized_omega)
        rep = criticality_test(alg_, nij, HermitianForm(J_.frame(), omega))
        gmax = max(abs(psi_gradient_analytic(alg_, J_, omega, d)) for d in delta_basis())
        assert (rep.residual <= 1e-8) == (gmax <= 1e-7), (rep.residual, gmax)


# -- optimizer --------------------------------------------------------------------


def test_find_critical_flagship():
    mp = catalog("s3s3_perturbed", seed=7, magnitude=0.05)
    alg = mp.algebra()
    res = find_critical(alg, AlmostComplexStructure(mp.J))
    assert res.converged
    assert res.trace[-1] < 1e-12
    assert res.suite is not None and res.suite.all_true
    assert all(res.trace[i + 1] <= res.trace[i] for i in range(len(res.trace) - 1))
    # the functional value at the solution matches the committed fixture
    algf, Jf, _ = nk_fixture()
    assert abs(psi_value(alg, res.J) - psi_value(algf, Jf)) < 1e-8


def test_find_critical_at_fixture_is_instant():
    alg, J, _ = nk_fixture()
    res = find_critical(alg, J)
    assert res.converged
    assert res.iterations == 0


def test_find_critical_large_kick_honest():
    mp = catalog("s3s3_perturbed", seed=5, magnitude=0.3)
    res = find_critical(mp.algebra(), AlmostComplexStructure(mp.J), max_iter=60)
    # either converges or reports the stall; the trace is monotone either way
    assert all(res.trace[i + 1] <= res.trace[i] for i in range(len(res.trace) - 1))
    if res.converged:
        assert res.suite is not None and res.suite.all_true
    else:
        assert res.reason != "converged"


def test_find_critical_ends_with_a_verdict_from_random_starts():
    # a search never ends on a rank-deficient omega: the stack's positivity is the gate
    # the suite applies, so a converged search reaches the suite with a metric
    rng = np.random.default_rng(2026)
    for _ in range(60):
        alg, J = random_valid_algebra(rng), random_acs(rng)
        res = find_critical(alg, J, max_iter=40)
        assert res.converged == (res.suite is not None and res.suite.all_true), res.reason


def test_find_critical_no_solution_is_honest_failure():
    # the product of a 3-sphere factor with a flat factor carries no critical
    # invariant structure; the optimizer must not fake one by escaping the
    # compatibility domain (where the normalization gauge deflates the residual)
    alg, J = su2r3()
    res = find_critical(alg, J, max_iter=40)
    assert not res.converged
    assert all(res.trace[i + 1] <= res.trace[i] for i in range(len(res.trace) - 1))


def test_find_critical_exhausts_the_trust_region_on_su2r3():
    # with the default max_iter the search stalls: 40 rejected damped trials and
    # 24 kicks none of which lowers the objective end it.  Where on the plateau it stalls
    # follows the rounding of the Jacobian and of the conformal SVD: 55 iterations with the
    # central difference, 42 with the analytic Jacobian and the 18 x 9 system
    alg, J = su2r3()
    res = find_critical(alg, J, seed=0)
    assert not res.converged and res.reason == "trust region exhausted above tolerance"
    assert res.iterations == 42 and len(res.records) == 43 and len(res.trace) == 43
    assert all(res.trace[i + 1] <= res.trace[i] for i in range(len(res.trace) - 1))
    last = res.records[-1]
    assert last.step_norm is None and last.rejected_trials == 40 and last.kick is None
    # every kick at seed 0 leaves the chart or the working region unevaluated;
    # at seed 3 three kicks are evaluated and do not lower the objective
    assert last.residual_evals == 0
    again = find_critical(alg, J, seed=3)
    assert again.reason == res.reason and again.records[-1].residual_evals == 3
    assert again.records[:-1] == res.records[:-1]
    assert find_critical(alg, J, seed=3).records == again.records


def test_find_critical_suite_veto_rejects_a_vanished_residual(monkeypatch):
    import nkvol.nk_su3 as nk

    suite = nk.nk_equivalence_suite
    monkeypatch.setattr(nk, "nk_equivalence_suite",
                        lambda *args: suite(*args)._replace(torsion_ok=False))
    mp = catalog("s3s3_perturbed", seed=7)
    res = find_critical(mp.algebra(), AlmostComplexStructure(mp.J))
    assert not res.converged and res.trace[-1] < 1e-12
    assert res.reason.startswith("residual vanished outside the compatibility domain: ")
    assert res.psi_gradient_max_abs is None and not res.suite.all_true


def test_find_critical_on_rescaled_algebra():
    # an algebra isomorphic to the catalog one (second factor rescaled)
    # converges to an equivalent solution in the normalized gauge
    alg, J = su2su2_asymmetric()
    res = find_critical(alg, J, max_iter=60)
    assert res.converged
    assert res.suite.all_true
    assert abs(res.suite.lam - 2.0) < 1e-9


# -- the stacked residual kernel ------------------------------------------------------

# A deformation of the s3s3 J whose conformal candidate is indefinite.
NON_POSITIVE_DELTA = np.array([[0.2 - 0.6j, 0.6 - 0.3j, -0.1 + 0.1j],
                               [0.8 - 0.6j, -0.4 - 0.1j, 0.2 - 0.1j],
                               [0.5 + 0.3j, 0.1 + 0.1j, -0.4 + 0.2j]])


def assert_stack_matches_scalar(alg, J, deltas):
    """The stacked kernel and `criticality_residual_vector` at each deformed structure
    against the scalar reference `scalar_residual_vector` (None where it raises)."""
    vecs, valid = criticality_residuals(alg, J, deltas)
    assert vecs.shape == (len(deltas), 40)
    fr = J.frame()
    for k, d in enumerate(deltas):
        try:
            Jd = deform_J(J, Deformation(d), 1.0, frame=fr)
            ref, rep, nij = scalar_residual_vector(alg, Jd)
        except ValueError:
            ref = None
        else:
            # on one structure the kernel runs the reference's arithmetic: equal bit for bit
            vec, frame, st = criticality_residual_vector(alg, Jd)
            assert st.positive == rep.positive, k
            assert np.array_equal(frame.theta_coeffs, nij.frame.theta_coeffs), k
            assert np.array_equal(frame.v_coords, nij.frame.v_coords), k
            if ref is None:
                assert vec is None and not st.normalizable and not rep.normalizable, k
            else:
                assert np.array_equal(vec, ref), k
                assert np.array_equal(st.normalized_omega, rep.normalized_omega), k
        assert valid[k] == (ref is not None), k
        if ref is None:
            assert not np.any(vecs[k]), k
        else:
            assert np.max(np.abs(vecs[k] - ref)) <= 1e-13 * np.max(np.abs(ref)), k
    return valid


def test_stacked_residuals_match_scalar_path():
    rng = np.random.default_rng(11)
    mp = catalog("s3s3_perturbed", seed=7)
    cases = [nk_fixture()[:2], (mp.algebra(), AlmostComplexStructure(mp.J)), su2r3()]
    for alg, J in cases:
        kicks = 0.05 * (rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3)))
        valid = assert_stack_matches_scalar(alg, J, np.concatenate([fd_deltas(), kicks]))
        assert valid.all()
        for one in (fd_deltas()[:1], kicks[:1]):  # one-slice stacks
            assert assert_stack_matches_scalar(alg, J, one).tolist() == [True]


def test_stacked_residuals_mask_rejected_slices():
    alg, J = s3s3()
    rng = np.random.default_rng(2)
    small = 0.01 * (rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3)))
    deltas = np.array([small[0], np.eye(3), NON_POSITIVE_DELTA, small[1]])
    # the scalar path raises on the non-complementary graph and finds no
    # positive candidate at the other structure
    with pytest.raises(ValueError, match="not complementary"):
        deform_J(J, Deformation(np.eye(3)), 1.0)
    vec, _, st = criticality_residual_vector(alg, deform_J(J, Deformation(NON_POSITIVE_DELTA), 1.0))
    assert vec is None and not st.positive and not st.normalizable
    valid = assert_stack_matches_scalar(alg, J, deltas)
    assert valid.tolist() == [True, False, False, True]
    # the same slices as one-slice stacks
    assert [assert_stack_matches_scalar(alg, J, d[None])[0] for d in deltas] == valid.tolist()


def test_offshape_matches_projector_route():
    # the frame split of d omega (`split_30`) against the Lambda^3 projectors: its (3,0)
    # coefficient times theta^123 against Pi^{3,0} d omega, and its off-shape part against
    # Pi^{2,1} d omega + Pi^{1,2} d omega; then `offshape_residual` on gated omegas against
    # the projector oracle, which must give the same `shape` verdict
    from nkvol.acs import default_frame_coords, split_30, theta_top_coeffs
    from nkvol.conventions import within
    from nkvol.hermitian_torsion import offshape_residual

    from helpers import offshape_projector_route, product_omega

    rng = np.random.default_rng(21)
    for _ in range(6):
        alg = random_valid_algebra(rng)
        Js = [random_acs(rng) for _ in range(3)]
        dws = [d_invariant(alg, random_form(rng, 6, 2, real=True)) for _ in Js]
        theta, V = default_frame_coords(np.array([J.matrix for J in Js]))
        c_stacked, off_stacked = split_30(np.array([dw.coeffs for dw in dws]), theta, V)
        for k, (J, dw) in enumerate(zip(Js, dws)):
            tol = 1e-13 * max(1.0, dw.norm())
            fr = J.frame()
            c, off = split_30(dw.coeffs, fr.theta_coeffs, fr.v_coords)
            ref = (bidegree_project(J, dw, 2, 1) + bidegree_project(J, dw, 1, 2)).coeffs
            assert np.max(np.abs(off - ref)) <= tol
            assert (c * fr.theta_top() - bidegree_project(J, dw, 3, 0)).norm() <= tol
            assert np.max(np.abs(off_stacked[k] - off)) <= tol
            # the (3,0) coefficient is frame-dependent, its (3,0) part is not
            top_k = theta_top_coeffs(theta[k])
            assert np.max(np.abs(c_stacked[k] * top_k - c * fr.theta_top().coeffs)) <= tol

    alg, J, omega = nk_fixture()
    cases = [(alg, J, omega), (*s3s3(), product_omega())]
    for seed in (7, 11):
        m = catalog("s3s3_perturbed", seed=seed)
        algp, Jp = m.algebra(), AlmostComplexStructure(m.J)
        omega = conformal_solve(nijenhuis_via_brackets(algp, Jp)).normalized_omega
        cases.append((algp, Jp, Form(6, 2, omega)))
    for alg, J, omega in cases:
        h = HermitianForm(J.frame(), omega)
        residual, c, domega = offshape_residual(alg, h)
        p30 = c * J.frame().theta_top()
        ref_residual, ref30 = offshape_projector_route(alg, h)
        assert abs(residual - ref_residual) <= 1e-13
        assert (p30 - ref30).norm() <= 1e-13 * max(1.0, domega.norm())
        assert within(residual, "shape") == within(ref_residual, "shape")


def test_jacobian_kernel_builds_no_projectors(monkeypatch):
    # one stacked kernel evaluation works in frame coordinates: no Lambda^3 projector or
    # derivation matrix, and only the frame and conformal SVDs.  The analytic Jacobian
    # differentiates the accepted point's evaluation: no projector, no SVD, QR or
    # eigendecomposition, and no new frame or N* matrix
    import sys

    import nkvol.variation_opt as vo

    alg, J = su2r3()
    fr = J.frame()
    criticality_residuals(alg, J, fd_deltas(), frame=fr)  # builds the algebra's d matrices once
    _, frame, st = criticality_residual_vector(alg, J)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("nkvol."):
            for name in ("projector_from_derivation", "substitution", "default_frame_coords",
                         "nijenhuis_matrices", "conformal_stack"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    for name in ("svd", "qr", "eig", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    _, valid = criticality_residuals(alg, J, fd_deltas(), frame=fr)
    assert valid.all()
    assert "projector_from_derivation" not in calls and "substitution" not in calls, calls
    assert calls.count("svd") <= 2, calls
    calls.clear()
    assert vo._jacobian(alg, frame, st).shape == (40, 18)
    assert calls == [], calls


def test_triple_products_match_their_references_bit_for_bit():
    # theta_top_coeffs and the Jacobian's _top_tangent take the stacked references' products
    # and sums in the same order, so they agree to the bit, signed zeros included, on random
    # complex stacks, with exact zeros of both signs (as in structured frames) and with the
    # strided rows the Jacobian passes (V^T and dV swapped)
    import nkvol.variation_opt as vo
    from nkvol.acs import theta_top_coeffs

    from helpers import theta_top_reference, top_tangent_reference

    def same(a, b):
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()

    rng = np.random.default_rng(35)
    for k in range(200):
        rows = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        drows = rng.standard_normal((18, 3, 6)) + 1j * rng.standard_normal((18, 3, 6))
        if k % 2:
            rows[:, rng.integers(0, 6, 2)] = -0.0
            rows[rng.integers(0, 3)] = 0.0
            drows[:, :, rng.integers(0, 6, 3)] = rng.choice([0.0, -0.0])
            drows[::2] *= -1
        for theta in (rows, drows, drows.real, drows.reshape(3, 6, 3, 6)):
            assert same(theta_top_coeffs(theta), theta_top_reference(theta)), k
        strided = np.swapaxes(np.swapaxes(drows, -2, -1).copy(), -2, -1)
        for r, d in ((rows, drows), (rows.T.copy().T, strided)):
            assert same(vo._top_tangent(r, d), top_tangent_reference(r, d)), k


def jacobian_error(alg, J) -> float:
    """max |analytic - central difference| / max |central difference| of the search's
    Jacobian at J, taken in the frame of J's residual evaluation."""
    import nkvol.variation_opt as vo

    vec, fr, st = criticality_residual_vector(alg, J)
    assert vec is not None
    fd = fd_jacobian(alg, J, frame=fr)
    return float(np.max(np.abs(vo._jacobian(alg, fr, st) - fd)) / np.max(np.abs(fd)))


JACOBIAN_REL_TOL = 1e-6  # against the central difference; the worst point below is 8.2e-9


def test_analytic_jacobian_matches_central_difference():
    # the fixture, seed 7 at both magnitudes and su(2)+R^3, each at its start and its first
    # three iterates (the fixture has none: its search converges at the start), then the
    # eight su(2)+su(2) draws of rng 2026 with a positive candidate
    mp = [catalog("s3s3_perturbed", seed=7, magnitude=m) for m in (0.05, 0.3)]
    starts = [nk_fixture()[:2], *[(m.algebra(), AlmostComplexStructure(m.J)) for m in mp], su2r3()]
    points = [(alg, find_critical(alg, J0, max_iter=k).J) for alg, J0 in starts for k in range(4)]
    alg = catalog("s3s3").algebra()
    rng = np.random.default_rng(2026)
    draws = [J for J in (random_acs(rng) for _ in range(30))
             if criticality_residual_vector(alg, J)[0] is not None]
    assert len(draws) == 8
    for alg_, J in [*points, *((alg, J) for J in draws)]:
        assert jacobian_error(alg_, J) <= JACOBIAN_REL_TOL


def test_candidate_tangent_on_the_projected_branch(monkeypatch):
    # census draw 134 of rng 11 (`test_valid_manifests_exit_2_only_out_of_scope`) reaches
    # the projected branch at its 11th Jacobian: four singular values of the conformal
    # system lie near 1e-11 of the top one, inside the strict nullspace, and H's least
    # eigenvalue is 5e-12 of its largest, just inside the definite cut.  At h = 1e-6 the
    # four leave the nullspace and one side of each of the 18 central differences fails
    # the positivity gate, so the central difference is the zero matrix there.  The
    # branch's oracle holds the cluster instead: the canonical direction projected onto
    # the four least right singular vectors of the system of M +- h dM, for random dM
    import nkvol.variation_opt as vo
    from nkvol.hermitian_torsion import (_CANONICAL, _HERMITIAN_UNITS, _conformal_map,
                                         candidate_tangent)

    rng = np.random.default_rng(11)
    for _ in range(135):
        alg, J = random_valid_algebra(rng), random_acs(rng)
    jacobian, seen = vo._jacobian, []

    def record(alg_, fr, st):
        seen.append((fr, st))
        return jacobian(alg_, fr, st)

    monkeypatch.setattr(vo, "_jacobian", record)
    find_critical(alg, J, max_iter=30)
    projected = [k for k, (_, st) in enumerate(seen) if st.projected]
    assert projected and projected[0] == 10, projected
    fr, st = seen[projected[0]]
    assert int(st.null.sum()) == 4
    assert not fd_jacobian(alg, fr.J, frame=fr).any()

    def branch(M):
        system = (np.concatenate([M.real, M.imag]).ravel() @ _conformal_map()).reshape(18, 9)
        vt = np.linalg.svd(system)[2][-4:]
        x = vt.T @ (vt @ _CANONICAL)
        return st.flip * np.tensordot(x / np.linalg.norm(x), _HERMITIAN_UNITS, axes=(-1, 0))

    assert np.max(np.abs(branch(st.M) - st.hermitian)) <= 1e-12
    dM = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
    h = 1e-6
    fd = np.array([(branch(st.M + h * d) - branch(st.M - h * d)) / (2.0 * h) for d in dM])
    assert np.max(np.abs(candidate_tangent(st, dM) - fd)) <= JACOBIAN_REL_TOL * np.max(np.abs(fd))


def test_stacked_conformal_solve_canonical_branch():
    # on the flat torus N* = 0, so the strict nullspace is everything (dimension 9)
    # and the candidate comes from the canonical projection; its |P|^2 is 0
    from nkvol.acs import default_frame_coords
    from nkvol.hermitian_torsion import _hermitian_basis, conformal_stack
    from nkvol.nijenhuis import nijenhuis_matrices

    m = catalog("torus6")
    alg, J = m.algebra(), AlmostComplexStructure(m.J)
    rng = np.random.default_rng(4)
    deltas = 0.05 * (rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3)))
    valid = assert_stack_matches_scalar(alg, J, deltas)
    assert not valid.any()
    Js = [deform_J(J, Deformation(d), 1.0) for d in deltas]
    Jm = np.array([Jd.matrix for Jd in Js])
    theta, V = default_frame_coords(Jm)
    st = conformal_stack(nijenhuis_matrices(alg, Jm, theta, V), theta)
    for k, Jd in enumerate(Js):
        rep = conformal_solve(nijenhuis_via_brackets(alg, Jd))
        assert rep.solution_dimension == int(st.null[k].sum()) == 9
        assert st.positive[k] == rep.positive
        assert np.max(np.abs(candidate_coeffs(st)[k] - candidate_coeffs(rep))) <= 1e-13
        # the canonical direction i sum theta^a ^ conj theta^a, unit length in the
        # Hermitian basis, is the positive candidate up to sign
        canonical = _hermitian_basis(Jd.frame().coframe) @ np.r_[np.ones(3), np.zeros(6)] / np.sqrt(3.0)
        assert rep.positive
        assert min(np.max(np.abs(candidate_coeffs(rep) - sign * canonical)) for sign in (1, -1)) <= 1e-12


def test_find_critical_iteration_counts_pinned():
    for magnitude, iterations in ((0.05, 6), (0.3, 7)):
        mp = catalog("s3s3_perturbed", seed=7, magnitude=magnitude)
        res = find_critical(mp.algebra(), AlmostComplexStructure(mp.J))
        assert res.converged and res.iterations == iterations
        assert len(res.records) == iterations
        assert [r.objective for r in res.records] == res.trace[1:]
        # the paper's functional certifies the solution independently
        assert res.psi_gradient_max_abs is not None and res.psi_gradient_max_abs < 1e-8


# The su(2)+R^3 trace to 18 iterations, as recorded with the frame-native
# residual kernel.  1-ulp conjugations of the start move it by 3e-10 to 1e-9
# (`test_su2r3_trace_stable_under_ulp_conjugation`), so the 1e-9 pin holds on
# the exact start only.
SU2R3_TRACE_18 = [
    0.00018310546874999967, 4.094715296157106e-05, 1.2925485478735005e-05,
    4.449002820504624e-06, 1.3334534994649792e-06, 3.9760544830701935e-07,
    1.2505365946627672e-07, 4.0555475688608415e-08, 1.3346714258958537e-08,
    8.477783870802138e-09, 6.6391484217995874e-09, 5.708166302223798e-09,
    5.164534954910157e-09, 4.820122144633337e-09, 4.590488349768783e-09,
    4.580258360931227e-09, 4.5783453113885215e-09, 4.577986792490087e-09,
    4.577717940162129e-09,
]

# The same trace as recorded with the earlier kernel, which applied the 20 x 20
# bidegree projectors to d omega.  Rounding alone moves that kernel's trace by
# up to about 5e-9 under 1-ulp conjugations of the start.
SU2R3_TRACE_18_PROJECTOR = [
    0.00018310546874999992, 4.094715294867571e-05, 1.2925485471639774e-05,
    4.44900281829695e-06, 1.3334534993252882e-06, 3.976054480441269e-07,
    1.2505365946280563e-07, 4.055547570989832e-08, 1.3346714257326932e-08,
    8.477783866365932e-09, 6.639148424080614e-09, 5.7081663117430355e-09,
    5.164534961923213e-09, 4.820122152610256e-09, 4.590488356584371e-09,
    4.580258367727958e-09, 4.57834531817936e-09, 4.577986799275466e-09,
    4.577717946949834e-09,
]


@lru_cache(maxsize=None)
def su2r3_search_18():
    alg, J = su2r3()
    return find_critical(alg, J, max_iter=18)


def test_su2r3_trace_matches_record():
    res = su2r3_search_18()
    assert not res.converged and res.iterations == 18
    assert len(res.trace) == len(SU2R3_TRACE_18)
    for got, want in zip(res.trace, SU2R3_TRACE_18):
        assert abs(got - want) <= 1e-9 * want
    assert res.psi_gradient_max_abs is None


def test_su2r3_trace_agrees_with_projector_record():
    res = su2r3_search_18()
    assert len(res.trace) == len(SU2R3_TRACE_18_PROJECTOR)
    for got, want in zip(res.trace, SU2R3_TRACE_18_PROJECTOR):
        assert abs(got - want) <= 1e-8 * want


def test_su2r3_trace_stable_under_ulp_conjugation():
    # J0 -> A J0 A^-1 with A = I + 1e-16 R moves the entries of J0 by at most a few ulp
    alg, J = su2r3()
    for seed in range(4):
        A = np.eye(6) + 1e-16 * np.random.default_rng(seed).standard_normal((6, 6))
        Jc = A @ J.matrix @ np.linalg.inv(A)
        assert 0.0 < np.max(np.abs(Jc - J.matrix)) <= 4e-16
        res = find_critical(alg, AlmostComplexStructure(Jc), max_iter=18)
        assert res.iterations == 18 and len(res.trace) == len(SU2R3_TRACE_18)
        for got, want in zip(res.trace, SU2R3_TRACE_18):
            assert abs(got - want) <= 1e-8 * want, seed


def test_telemetry_counts_every_structure(monkeypatch):
    import nkvol.variation_opt as vo

    jacobians, scalar_calls = [], [0]
    jacobian, scalar = vo._jacobian, vo.criticality_residual_vector

    def count_jacobian(alg, fr, st):
        jacobians.append(fr.J)
        return jacobian(alg, fr, st)

    def count_scalar(*args, **kwargs):
        scalar_calls[0] += 1
        return scalar(*args, **kwargs)

    monkeypatch.setattr(vo, "_jacobian", count_jacobian)
    monkeypatch.setattr(vo, "criticality_residual_vector", count_scalar)
    alg, J = su2r3()
    res = vo.find_critical(alg, J, max_iter=18)
    # one analytic Jacobian per iteration, at the start and then at each accepted point,
    # which evaluates no structure; one evaluation per trial that stayed in the working
    # region, the start's not counted
    assert len(jacobians) == len(res.records) and jacobians[0] is J
    assert sum(r.residual_evals for r in res.records) == scalar_calls[0] - 1
    # every trial rejected on this search left the working region, which is
    # tested before the residual is paid for: only the accepted trial is evaluated
    assert sum(r.rejected_trials for r in res.records) > 0
    assert all(r.residual_evals == 1 and r.kick is None for r in res.records)
    assert [r.objective for r in res.records] == res.trace[1:]
    assert res.records == su2r3_search_18().records  # deterministic


def test_search_runs_without_conformal_solve(monkeypatch):
    # the start point, every trial and every kick run the kernel of the Jacobian,
    # so the search reaches the pinned trace and the fixture's instant start with
    # the scalar conformal solve replaced by a function that raises
    import nkvol.hermitian_torsion as ht
    import nkvol.variation_opt as vo

    pinned = su2r3_search_18()  # recorded before the replacement

    def forbidden(*args, **kwargs):
        raise AssertionError("the search called conformal_solve")

    monkeypatch.setattr(ht, "conformal_solve", forbidden)
    assert not hasattr(vo, "conformal_solve")
    alg, J = su2r3()
    res = find_critical(alg, J, max_iter=18)
    assert res.trace == pinned.trace and res.records == pinned.records
    for got, want in zip(res.trace, SU2R3_TRACE_18):
        assert abs(got - want) <= 1e-9 * want
    algf, Jf, _ = nk_fixture()
    res = find_critical(algf, Jf)
    assert res.converged and res.iterations == 0 and res.suite.all_true


def test_psi_gradient_one_pass_matches_each_direction():
    from nkvol.conventions import ZH_DUALITY_FACTOR
    from nkvol.multilinear import contract, form_from_one_coeffs, wedge
    from nkvol.nijenhuis import rho_skew_coefficient
    from helpers import forms_close, norm30_wedge_route

    mp = catalog("s3s3_perturbed", seed=7)
    rng = np.random.default_rng(5)
    for alg, J, omega in (nk_fixture(), (mp.algebra(), AlmostComplexStructure(mp.J), None)):
        nij = nijenhuis_via_brackets(alg, J)
        if omega is None:
            omega = Form(6, 2, conformal_solve(nij).normalized_omega)
        grad = psi_gradient(alg, nij, HermitianForm(J.frame(), omega))
        each = [psi_gradient_analytic(alg, J, omega, d) for d in delta_basis()]
        assert np.max(np.abs(grad - each)) <= 1e-15
        # the (2,1)-form against its construction from the full torsion criterion
        fr = J.frame()
        P = rho_skew_coefficient(HermitianForm(fr, omega).block, nij.matrix) * fr.theta_top()
        P = (1.0 / (ZH_DUALITY_FACTOR * np.sqrt(norm30_wedge_route(omega, P)))) * P
        d = Deformation(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        legs = d.matrix @ fr.coframe[3:]
        ref = wedge(contract(fr.v(0), P), form_from_one_coeffs(6, legs[0]))
        for a in (1, 2):
            ref = ref + wedge(contract(fr.v(a), P), form_from_one_coeffs(6, legs[a]))
        assert forms_close(delta_as_21_form(alg, J, omega, d), ref, 1e-13)


def test_random_j_searches_on_su2su2_never_raise(tmp_path, capsys):
    # 30 random J on su(2)+su(2) (rng 2026) with max_iter 40.  The 5th draw's search
    # converges to an omega near the boundary of positivity; the stack decides positivity
    # on the metric omega(., J.), as `HermitianForm` does, so that omega passes the gate
    # and the equivalence suite rejects it: the search ends unconverged, outside the
    # compatibility domain, and `optimize` exits 1 on it, not 2
    import json
    from collections import Counter

    from nkvol.cli import run

    alg = catalog("s3s3").algebra()
    rng = np.random.default_rng(2026)
    Js = [random_acs(rng) for _ in range(30)]
    reasons = Counter()
    for J in Js:
        res = find_critical(alg, J, max_iter=40)
        assert not res.converged
        reasons[res.reason.split(":")[0]] += 1
    assert reasons == {"no positive candidate omega at start": 22,
                       "residual vanished outside the compatibility domain": 6,
                       "max iterations reached": 2}, reasons
    path = tmp_path / "draw5.json"
    catalog("s3s3")._replace(name="draw5", J=Js[4].matrix, metric=None).save(path)
    assert run(["optimize", str(path), "--max-iter", "40", "--json"]) == 1
    reason = json.loads(capsys.readouterr().out)["checks"]["reason"]
    assert reason == ("residual vanished outside the compatibility domain: "
                      "the equivalence suite rejects the candidate"), reason


def test_census_searches_at_the_definite_cut_reach_the_suite():
    # the five searches of the census (30 su(2)+su(2) draws of rng 2026 at max_iter 40, then
    # 150 draws of rng 11 at max_iter 30) whose residual vanishes where the candidate's metric
    # sits at the `definite` cut: the suite reads the omega whose positivity the search's stack
    # decided, so each ends with the suite's verdict and none with "omega not positive"
    reasons = [vanished_su2su2_search()[1].reason]
    rng = np.random.default_rng(11)
    draws = [(random_valid_algebra(rng), random_acs(rng)) for _ in range(101)]
    reasons += [find_critical(*draws[k], max_iter=30).reason for k in (23, 32, 67, 100)]
    assert reasons == ["residual vanished outside the compatibility domain: "
                       "the equivalence suite rejects the candidate"] * 5, reasons
