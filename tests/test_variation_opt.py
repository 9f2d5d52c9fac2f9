"""Deformations, the first variation against finite differences, optimization."""

from functools import lru_cache

import numpy as np
import pytest

from nkvol.frame_manifold import CoframeAlgebra, Manifest, catalog, d_invariant
from nkvol.acs import AlmostComplexStructure, bidegree_project
from nkvol.nijenhuis import nijenhuis_via_brackets
from nkvol.hermitian_torsion import HermitianForm, conformal_solve
from nkvol.variation_opt import (
    JACOBIAN_FD_STEP,
    Deformation,
    criticality_residual_vector,
    criticality_residuals,
    criticality_test,
    deform_J,
    delta_basis,
    find_critical,
    psi_gradient,
    psi_value,
)

from helpers import (FIXTURE, delta_as_21_form, frame_from_thetas, is_critical, psi_gradient_analytic,
                     psi_gradient_fd, random_acs, random_form, random_valid_algebra, s3s3,
                     scalar_residual_vector)


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
        omega = conformal_solve(nijenhuis_via_brackets(alg, J)).normalized_omega
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
    omega = conformal_solve(nijenhuis_via_brackets(alg, J)).normalized_omega
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
    rep = criticality_test(alg, nijenhuis_via_brackets(alg, J), HermitianForm(J, omega))
    assert is_critical(rep)
    assert rep.residual < 1e-12


def test_criticality_catalog_noncritical():
    alg, J = s3s3()
    nij = nijenhuis_via_brackets(alg, J)
    rep = criticality_test(alg, nij, HermitianForm(J, conformal_solve(nij).normalized_omega))
    assert rep.verdict == "non-critical"
    assert rep.residual > 1e-3


def test_criticality_torus_degenerate():
    m = catalog("torus6")
    rep = criticality_test(m.algebra(), nijenhuis_via_brackets(m.algebra(), AlmostComplexStructure(m.J)))
    assert rep.verdict == "degenerate"
    assert rep.degenerate


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
        omega = conformal_solve(nij).normalized_omega
        rep = criticality_test(alg_, nij, HermitianForm(J_, omega))
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
    # 24 kicks none of which lowers the objective end it
    alg, J = su2r3()
    res = find_critical(alg, J, seed=0)
    assert not res.converged and res.reason == "trust region exhausted above tolerance"
    assert res.iterations == 55 and len(res.records) == 56 and len(res.trace) == 56
    assert all(res.trace[i + 1] <= res.trace[i] for i in range(len(res.trace) - 1))
    last = res.records[-1]
    assert last.step_norm is None and last.rejected_trials == 40 and last.kick is None
    # every kick at seed 0 leaves the chart or the working region unevaluated;
    # at seed 3 three kicks are evaluated and do not lower the objective
    assert last.residual_evals == 36
    again = find_critical(alg, J, seed=3)
    assert again.reason == res.reason and again.records[-1].residual_evals == 39
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


def fd_deltas():
    steps = JACOBIAN_FD_STEP * np.array([d.matrix for d in delta_basis()])
    return np.concatenate([steps, -steps])


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
            vec, frame, positive, omega = criticality_residual_vector(alg, Jd)
            assert positive == rep.candidate_positive, k
            assert np.array_equal(frame.theta_coeffs, nij.frame.theta_coeffs), k
            assert np.array_equal(frame.v_coords, nij.frame.v_coords), k
            if ref is None:
                assert vec is None and omega is None and rep.normalized_omega is None, k
            else:
                assert np.array_equal(vec, ref), k
                assert np.array_equal(omega.coeffs, rep.normalized_omega.coeffs), k
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
    vec, _, positive, omega = criticality_residual_vector(
        alg, deform_J(J, Deformation(NON_POSITIVE_DELTA), 1.0))
    assert vec is None and omega is None and not positive
    valid = assert_stack_matches_scalar(alg, J, deltas)
    assert valid.tolist() == [True, False, False, True]
    # the same slices as one-slice stacks
    assert [assert_stack_matches_scalar(alg, J, d[None])[0] for d in deltas] == valid.tolist()


def test_offshape_matches_projector_route():
    # d omega minus its (3,0) and (0,3) parts, read from the frame, against the
    # Pi^{2,1} + Pi^{1,2} projectors of d omega
    from nkvol.acs import default_frame_coords
    from nkvol.variation_opt import _offshape

    rng = np.random.default_rng(21)
    for _ in range(6):
        alg = random_valid_algebra(rng)
        Js = [random_acs(rng) for _ in range(3)]
        omegas = [random_form(rng, 6, 2, real=True) for _ in Js]
        theta, V = default_frame_coords(np.array([J.matrix for J in Js]))
        stacked = _offshape(alg, theta, V, np.array([w.coeffs for w in omegas]))
        for k, (J, omega) in enumerate(zip(Js, omegas)):
            dw = d_invariant(alg, omega)
            off = (bidegree_project(J, dw, 2, 1) + bidegree_project(J, dw, 1, 2)).coeffs
            fr = J.frame()
            got = _offshape(alg, fr.theta_coeffs, fr.v_coords, omega.coeffs)
            assert np.max(np.abs(got - np.concatenate([off.real, off.imag]))) <= 1e-13 * max(1.0, dw.norm())
            assert np.max(np.abs(stacked[k] - got)) <= 1e-13 * max(1.0, dw.norm())


def test_jacobian_kernel_builds_no_projectors(monkeypatch):
    # one stacked Jacobian evaluation works in frame coordinates: no Lambda^3
    # projector or derivation matrix, and only the frame and conformal SVDs
    import sys

    alg, J = su2r3()
    fr = J.frame()
    criticality_residuals(alg, J, fd_deltas(), frame=fr)  # builds the algebra's d matrices once
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("nkvol."):
            for name in ("projector_from_derivation", "substitution"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    _, valid = criticality_residuals(alg, J, fd_deltas(), frame=fr)
    assert valid.all()
    assert "projector_from_derivation" not in calls and "substitution" not in calls, calls
    assert calls.count("svd") <= 2, calls


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
        assert bool(st.positive[k]) == rep.candidate_positive
        assert np.max(np.abs(st.candidate[k] - rep.candidate.coeffs)) <= 1e-13
        # the canonical direction i sum theta^a ^ conj theta^a, unit length in the
        # Hermitian basis, is the positive candidate up to sign
        canonical = _hermitian_basis(Jd.frame().coframe) @ np.r_[np.ones(3), np.zeros(6)] / np.sqrt(3.0)
        assert rep.candidate_positive
        assert min(np.max(np.abs(rep.candidate.coeffs - sign * canonical)) for sign in (1, -1)) <= 1e-12


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

    stacks, scalar_calls = [], [0]
    stacked, scalar = vo.criticality_residuals, vo.criticality_residual_vector

    def count_stack(alg, J, deltas, frame=None):
        stacks.append(len(deltas))
        return stacked(alg, J, deltas, frame=frame)

    def count_scalar(*args, **kwargs):
        scalar_calls[0] += 1
        return scalar(*args, **kwargs)

    monkeypatch.setattr(vo, "criticality_residuals", count_stack)
    monkeypatch.setattr(vo, "criticality_residual_vector", count_scalar)
    alg, J = su2r3()
    res = vo.find_critical(alg, J, max_iter=18)
    # one stacked Jacobian of 36 structures per iteration, each counted as one
    # evaluation; then one evaluation per trial that stayed in the working region
    assert stacks == [36] * len(res.records)
    assert sum(r.residual_evals for r in res.records) == 36 * len(stacks) + scalar_calls[0] - 1
    # every trial rejected on this search left the working region, which is
    # tested before the residual is paid for: only the accepted trial is evaluated
    assert sum(r.rejected_trials for r in res.records) > 0
    assert all(r.residual_evals == 37 and r.kick is None for r in res.records)
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
    from nkvol.hermitian_torsion import norm30_sq, torsion_criterion
    from nkvol.multilinear import contract, form_from_one_coeffs, wedge
    from helpers import forms_close

    mp = catalog("s3s3_perturbed", seed=7)
    rng = np.random.default_rng(5)
    for alg, J, omega in (nk_fixture(), (mp.algebra(), AlmostComplexStructure(mp.J), None)):
        nij = nijenhuis_via_brackets(alg, J)
        if omega is None:
            omega = conformal_solve(nij).normalized_omega
        grad = psi_gradient(alg, nij, HermitianForm(J, omega))
        each = [psi_gradient_analytic(alg, J, omega, d) for d in delta_basis()]
        assert np.max(np.abs(grad - each)) <= 1e-15
        # the (2,1)-form against its construction from the full torsion criterion
        fr = J.frame()
        P = torsion_criterion(nij, HermitianForm(J, omega)).lambda30_component
        P = (1.0 / (ZH_DUALITY_FACTOR * np.sqrt(norm30_sq(omega, P)))) * P
        d = Deformation(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        legs = d.matrix @ fr.coframe[3:]
        ref = wedge(contract(fr.v(0), P), form_from_one_coeffs(6, legs[0]))
        for a in (1, 2):
            ref = ref + wedge(contract(fr.v(a), P), form_from_one_coeffs(6, legs[a]))
        assert forms_close(delta_as_21_form(alg, J, omega, d), ref, 1e-13)
