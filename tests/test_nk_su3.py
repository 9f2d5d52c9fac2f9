"""Shape equations, nabla-omega antisymmetry, the equivalence suite, lemmas."""

import numpy as np

from nkvol.multilinear import basis_form, wedge
from nkvol.frame_manifold import Manifest, catalog, d_invariant
from nkvol.acs import AlmostComplexStructure, bidegree_project
from nkvol.nijenhuis import nijenhuis_via_brackets
from nkvol.hermitian_torsion import conformal_solve, norm30_sq
from nkvol.nk_su3 import (
    SU3Structure,
    check_nabla_omega,
    check_structure_equations,
    nk_equivalence_suite,
    solve_Omega,
)

from nkvol.variation_opt import psi_gradient, psi_value

from helpers import (FIXTURE, adapted_frame, forms_close, frame_check_residual, lemma_d_splitting_checks,
                     nk_closed_form, nk_fixture, product_omega)


def torus_structure():
    m = catalog("torus6")
    alg, J = m.algebra(), AlmostComplexStructure(m.J)
    omega0 = -1.0 * (wedge(basis_form(6, (1,)), basis_form(6, (2,)))
                     + wedge(basis_form(6, (3,)), basis_form(6, (4,)))
                     + wedge(basis_form(6, (5,)), basis_form(6, (6,))))
    Omega0 = adapted_frame(J, omega0).theta_top()
    return alg, J, omega0, Omega0


# -- solve_Omega ---------------------------------------------------------------


def test_solve_omega_torus_fails():
    alg, J, omega0, _ = torus_structure()
    solved = solve_Omega(alg, J, omega0)
    assert not solved.ok
    assert "d omega = 0" in solved.reason


def test_solve_omega_product_shape_failure():
    m = catalog("s3s3")
    alg, J = m.algebra(), AlmostComplexStructure(m.J)
    solved = solve_Omega(alg, J, product_omega())
    assert not solved.ok
    assert solved.offshape_residual > 1e-3


def test_solve_omega_fixture():
    alg, J, omega, Omega = nk_fixture()
    solved = solve_Omega(alg, J, omega)
    assert solved.ok
    assert abs(solved.lam - 2.0) < 1e-12           # regression fixture
    assert abs(norm30_sq(omega, solved.Omega) - 1.0) < 1e-12
    assert forms_close(solved.Omega, Omega, tol=1e-10)


def test_solve_omega_plant_and_recover():
    # rescaling omega by c^2 rescales lambda by 1/c; plant lambda = 0.5
    alg, J, omega, _ = nk_fixture()
    c = 2.0 / 0.5
    planted = (c ** 2) * omega
    solved = solve_Omega(alg, J, planted)
    assert solved.ok
    assert abs(solved.lam - 0.5) < 1e-12
    # the recovered Omega is the unit-normalized direction of d omega's (3,0) part
    p30 = bidegree_project(J, d_invariant(alg, planted), 3, 0)
    expect = (1.0 / np.sqrt(norm30_sq(planted, p30))) * p30
    assert forms_close(solved.Omega, expect, tol=1e-12)


# -- structure equations -------------------------------------------------------


def test_structure_equations_fixture():
    alg, J, omega, Omega = nk_fixture()
    s = SU3Structure(J, omega, Omega, 2.0)
    rep = check_structure_equations(alg, s)
    assert rep.r1 < 1e-9 and rep.r2 < 1e-9 and rep.r3 < 1e-9
    assert rep.passes()


def test_structure_equations_flat_lambda_zero():
    alg, J, omega0, Omega0 = torus_structure()
    s = SU3Structure(J, omega0, Omega0, 0.0)
    rep = check_structure_equations(alg, s)
    assert rep.r2 == 0.0  # r2 = |d Omega| on the flat model


def test_structure_equations_perturbed_fail():
    mp = catalog("s3s3_perturbed", seed=11)
    alg, Jp = mp.algebra(), AlmostComplexStructure(mp.J)
    rep = conformal_solve(nijenhuis_via_brackets(alg, Jp))
    solved = solve_Omega(alg, Jp, rep.normalized_omega)
    # the shape residual is the failure diagnostic for perturbed structures
    assert not solved.ok
    assert solved.offshape_residual > 1e-3


# -- nabla omega ---------------------------------------------------------------


def test_nabla_omega_flat_kaehler():
    alg, J, omega0, Omega0 = torus_structure()
    rep = check_nabla_omega(alg, SU3Structure(J, omega0, Omega0, 0.0))
    assert rep.antisymmetry_residual == 0.0
    assert not rep.strict                      # reported, not an error
    assert rep.strictness_min == 0.0


def test_nabla_omega_fixture():
    alg, J, omega, Omega = nk_fixture()
    rep = check_nabla_omega(alg, SU3Structure(J, omega, Omega, 2.0))
    assert rep.antisymmetry_residual < 1e-9
    assert rep.identification_residual < 1e-9
    assert rep.strict
    assert rep.strictness_min > 1e-4


def test_nabla_omega_wrong_scale_negative_control():
    m = catalog("s3s3")
    alg, J = m.algebra(), AlmostComplexStructure(m.J)
    omega = product_omega(scales=(1.0, 1.0, 5.0))
    fr = adapted_frame(J, omega)
    rep = check_nabla_omega(alg, SU3Structure(J, omega, fr.theta_top(), 1.0))
    assert rep.antisymmetry_residual > 1e-3


def test_nabla_identification_residual_is_structural():
    # 3 Alt(nabla omega) = d omega holds for the torsion-free connection on
    # any invariant Hermitian pair, special or not
    m = catalog("s3s3")
    alg, J = m.algebra(), AlmostComplexStructure(m.J)
    for scales in ((1.0, 1.0, 1.0), (1.0, 2.0, 3.0)):
        omega = product_omega(scales=scales)
        fr = adapted_frame(J, omega)
        rep = check_nabla_omega(alg, SU3Structure(J, omega, fr.theta_top(), 1.0))
        assert rep.identification_residual < 1e-12


# -- equivalence suite ----------------------------------------------------------


def test_suite_fixture_all_true():
    alg, J, omega, _ = nk_fixture()
    suite = nk_equivalence_suite(alg, nijenhuis_via_brackets(alg, J), omega)
    assert suite.verdicts == (True, True, True)
    assert suite.all_true and suite.consistent()
    assert not suite.degenerate
    assert abs(suite.lam - 2.0) < 1e-12


def test_suite_torus_degenerate_distinct():
    alg, J, omega0, _ = torus_structure()
    suite = nk_equivalence_suite(alg, nijenhuis_via_brackets(alg, J), omega0)
    assert suite.torsion_ok          # rho = 0 is skew
    assert suite.degenerate          # but the tensor is singular: no strict NK
    assert not suite.equations_ok
    assert not suite.all_true
    assert suite.consistent()


def test_suite_product_partial_but_consistent():
    # the equal-scale product satisfies the torsion criterion yet fails the
    # shape hypothesis: partial verdicts must be residual-consistent
    m = catalog("s3s3")
    alg, J = m.algebra(), AlmostComplexStructure(m.J)
    suite = nk_equivalence_suite(alg, nijenhuis_via_brackets(alg, J), product_omega())
    assert suite.torsion_ok
    assert not suite.hypothesis_ok
    assert suite.offshape_residual > 1e-3
    assert not suite.equations_ok and not suite.nabla_ok
    assert suite.consistent()


def test_suite_perturbed_consistent():
    for seed in (3, 7, 21):
        mp = catalog("s3s3_perturbed", seed=seed)
        alg, Jp = mp.algebra(), AlmostComplexStructure(mp.J)
        nij = nijenhuis_via_brackets(alg, Jp)
        rep = conformal_solve(nij)
        suite = nk_equivalence_suite(alg, nij, rep.normalized_omega)
        assert not suite.all_true
        assert suite.consistent()


def test_suite_uniqueness_scaled_plant():
    # two structures passing the suite on the same J have proportional omega
    # with a constant component ratio
    alg, J, omega, Omega = nk_fixture()
    c = 1.7
    omega2 = (c ** 2) * omega
    solved = solve_Omega(alg, J, omega2)
    assert solved.ok
    s2 = SU3Structure(J, omega2, solved.Omega, solved.lam)
    assert check_structure_equations(alg, s2).passes()
    suite2 = nk_equivalence_suite(alg, nijenhuis_via_brackets(alg, J), omega2)
    assert suite2.all_true
    ratios = [
        (omega2.coeffs[i] / omega.coeffs[i]).real
        for i in range(15)
        if abs(omega.coeffs[i]) > 1e-9
    ]
    ratios = np.array(ratios)
    assert np.max(np.abs(ratios - ratios[0])) < 1e-10 * abs(ratios[0])


# -- lemma checks ----------------------------------------------------------------


def test_lemma_d_splitting_fixture():
    alg, J, omega, Omega = nk_fixture()
    s = SU3Structure(J, omega, Omega, 2.0)
    res = lemma_d_splitting_checks(alg, s)
    for key in ("d01_Omega", "d10_Omega_bar", "pairing_22",
                "dOmega_via_d21bar", "dOmega_via_dm12"):
        assert res[key] < 1e-9, (key, res[key])
    # the Nijenhuis map is the frozen duality constant times lambda in the
    # adapted coframe
    assert res["nijenhuis_diagonal"] < 1e-9
    assert res["adapted_norm"] < 1e-9


def test_lemma_d_splitting_torus_trivial():
    alg, J, omega0, Omega0 = torus_structure()
    res = lemma_d_splitting_checks(alg, SU3Structure(J, omega0, Omega0, 0.0))
    for key in ("d01_Omega", "d10_Omega_bar", "pairing_22",
                "dOmega_via_d21bar", "dOmega_via_dm12"):
        assert res[key] == 0.0


def test_adapted_frame_properties():
    alg, J, omega, Omega = nk_fixture()
    fr = adapted_frame(J, omega, Omega)
    assert frame_check_residual(fr) < 1e-10
    assert forms_close(fr.theta_top(), Omega, tol=1e-10)
    assert abs(norm30_sq(omega, fr.theta_top()) - 1.0) < 1e-10


# -- the closed-form solution ------------------------------------------------------


def test_closed_form_structure_is_nearly_kaehler():
    # an oracle that does not come from the optimizer
    m = nk_closed_form()
    alg, J = m.algebra(), AlmostComplexStructure(m.J)
    nij = nijenhuis_via_brackets(alg, J)
    omega = conformal_solve(nij).normalized_omega
    suite = nk_equivalence_suite(alg, nij, omega)
    assert suite.all_true and suite.consistent()
    assert abs(suite.lam - 2.0) <= 1e-12
    assert abs(psi_value(alg, J) * 3.0 ** 4.5 - 1.0) <= 1e-12
    assert np.max(np.abs(psi_gradient(alg, nij, omega))) <= 1e-12
    # the transpose, another almost complex structure, has psi = 3^(-3/2) and is not
    Jt = AlmostComplexStructure(m.J.T)
    assert abs(psi_value(alg, Jt) * 3.0 ** 1.5 - 1.0) <= 1e-12
    nij_t = nijenhuis_via_brackets(alg, Jt)
    suite_t = nk_equivalence_suite(alg, nij_t, conformal_solve(nij_t).normalized_omega)
    assert not suite_t.all_true and suite_t.consistent()
    # the committed fixture, which the optimizer found, is this structure
    assert np.max(np.abs(Manifest.load(FIXTURE).J - m.J)) <= 5e-10
