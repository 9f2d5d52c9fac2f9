"""Homogeneous cone calculus, stability of 3-forms, Fernandez-Gray, metric roundtrip."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nkvol.multilinear import Form, Metric, basis_form, hodge_star, wedge
from nkvol.frame_manifold import Manifest, catalog, d_invariant
from nkvol.acs import AlmostComplexStructure
from nkvol.nijenhuis import nijenhuis_via_brackets
from nkvol.nk_su3 import SU3Structure, solve_Omega
from nkvol.hermitian_torsion import HermitianForm
from nkvol.g2_cone import (
    ConeForm,
    build_cone_3form,
    d_cone,
    fernandez_gray_check,
    hodge_cone,
    metric_roundtrip,
    normalize_to_unit_lambda,
    stability_check,
)

from helpers import (FIXTURE, bidegree_project, fg_passes, flat_g2_form, flat_su3_forms,
                     forms_close, j_multiplicative, norm30_wedge_route, random_form,
                     random_valid_algebra, zero_form)

RATIO_FIXTURE = 162.0 ** (2.0 / 9.0)   # convention constant of the roundtrip
SEEDS = st.integers(0, 2**32 - 1)
DD_TOL = 1e-13     # relative to max(1, |x|) max(1, |c|)^2; the worst of 1000 seeded draws was 1.0e-15
STAR_TOL = 1e-12   # relative to max(1, |x|); the worst of 400 seeded draws was 4.8e-15


def nk_structure():
    m = Manifest.load(FIXTURE)
    alg, J = m.algebra(), AlmostComplexStructure(m.J)
    h = HermitianForm(J.frame(), m.omega)
    solved = solve_Omega(alg, nijenhuis_via_brackets(alg, J), h)
    return alg, SU3Structure(h, solved.Omega, solved.lam)


def test_cone_form_term_validation():
    w0, _ = flat_su3_forms()
    bad = ConeForm(2, w0, w0)  # beta must have degree 1
    alg, g6 = catalog("s3s3").algebra(), Metric(np.eye(6))
    for op in (lambda: d_cone(alg, bad), lambda: hodge_cone(g6, bad), lambda: bad.at_t(1.0)):
        with pytest.raises(ValueError):
            op()


@given(SEEDS, st.integers(1, 4), st.integers(-2, 4))
def test_d_cone_squares_to_zero(seed, k, w):
    rng = np.random.default_rng(seed)
    alg = random_valid_algebra(rng)
    x = ConeForm(w, random_form(rng, 6, k), random_form(rng, 6, k - 1))
    dd = d_cone(alg, d_cone(alg, x))
    assert dd.weight == w and dd.degree == k + 2
    c = max(1.0, float(np.max(np.abs(alg.structure_constants))))
    assert dd.norm() <= DD_TOL * max(1.0, x.norm()) * c ** 2


@given(SEEDS, st.integers(1, 6), st.integers(-2, 4), st.floats(0.25, 4.0), st.sampled_from((1, -1)))
def test_hodge_cone_is_the_star_of_the_cone_metric(seed, k, w, t, orientation):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((6, 6))
    g6 = Metric(A @ A.T + 6 * np.eye(6), orientation=orientation)
    x = ConeForm(w, random_form(rng, 6, k), random_form(rng, 6, k - 1))
    star = hodge_cone(g6, x)
    assert (star.weight, star.degree) == (w + 7 - 2 * k, 7 - k)
    # ** = (-1)^{k(7-k)} = 1 in odd dimension, and the weight returns to w
    assert (hodge_cone(g6, star) - x).norm() <= STAR_TOL * max(1.0, x.norm())
    g7 = np.zeros((7, 7))
    g7[:6, :6] = (t ** 2) * g6.matrix
    g7[6, 6] = 1.0
    direct = hodge_star(Metric(g7, orientation=orientation), x.at_t(t))
    assert forms_close(star.at_t(t), direct, tol=STAR_TOL)


def test_d_cone_leibniz_weight_rule():
    # d(t^w alpha) = t^w d alpha + w t^{w-1} dt ^ alpha
    alg = catalog("s3s3").algebra()
    a = random_form(np.random.default_rng(1), 6, 2)
    d = d_cone(alg, ConeForm(5, a, zero_form(6, 1)))
    assert d.weight == 5
    assert forms_close(d.alpha, d_invariant(alg, a), tol=1e-12)
    assert forms_close(d.beta, 5.0 * a, tol=1e-12)


def test_build_cone_structure():
    alg, s = nk_structure()
    snorm = normalize_to_unit_lambda(s)
    assert abs(s.lam - 2.0) < 1e-12 and snorm.lam == 1.0
    rho = build_cone_3form(snorm.form.omega, alg)
    # rho = 3 t^2 omega ^ dt + t^3 d omega: weight 3, with both parts present
    assert rho.weight == 3 and rho.degree == 3
    assert rho.alpha.norm() > 0.0 and rho.beta.norm() > 0.0


def test_build_cone_zero_omega():
    assert build_cone_3form(zero_form(6, 2), catalog("s3s3").algebra()).norm() == 0.0


def test_cone_at_t1_substitution():
    # at t = 1 the form is 3 omega ^ dt + 3 Re Omega for the unit-lambda data
    alg, s = nk_structure()
    snorm = normalize_to_unit_lambda(s)
    rho = build_cone_3form(snorm.form.omega, alg)
    phi = rho.at_t(1.0)
    from nkvol.g2_cone import _embed

    expect = wedge(_embed(snorm.form.omega), basis_form(7, (7,))) * 3.0 \
        + 3.0 * _embed(snorm.Omega.real())
    assert forms_close(phi, expect, tol=1e-10)


def test_hodge_cone_against_direct_seven_dim_star():
    # the graded star agrees with the literal Hodge dual of t^2 g + dt^2
    alg, s = nk_structure()
    snorm = normalize_to_unit_lambda(s)
    g6 = snorm.form.metric
    rho = build_cone_3form(snorm.form.omega, alg)
    star = hodge_cone(g6, rho)
    for t in (1.0, 1.7):
        g7 = np.zeros((7, 7))
        g7[:6, :6] = (t ** 2) * g6.matrix
        g7[6, 6] = 1.0
        direct = hodge_star(Metric(g7, orientation=g6.orientation), rho.at_t(t))
        assert forms_close(star.at_t(t), direct, tol=1e-10)


# -- stability ------------------------------------------------------------------


def test_flat_g2_form_stable():
    rep = stability_check(flat_g2_form())
    assert rep.stable
    assert rep.orientation_sign == 1
    assert rep.stabilizer_dimension == 14
    assert rep.symmetry_defect < 1e-14
    assert np.max(np.abs(rep.metric - (6.0 ** (2.0 / 9.0)) * np.eye(7))) < 1e-12


def test_gl7_action_rank_matches_per_map_substitution():
    from nkvol.conventions import TOLERANCES
    from nkvol.g2_cone import _gl7_action_rank
    from nkvol.multilinear import basis_form, substitution

    rng = np.random.default_rng(17)
    e123 = basis_form(7, (1, 2, 3))
    phis = [random_form(rng, 7, 3), random_form(rng, 7, 3, real=True), flat_g2_form(),
            e123, e123 + basis_form(7, (4, 5, 6))]
    ranks = []
    for phi in phis:
        M = np.column_stack([substitution(a.T, 1, 3) @ phi.coeffs
                             for a in np.eye(49).reshape(49, 7, 7)])
        ranks.append(int(np.linalg.matrix_rank(np.vstack([M.real, M.imag]), tol=TOLERANCES["rank"])))
        assert _gl7_action_rank(phi) == ranks[-1]
    assert ranks[:3] == [49, 35, 35] and min(ranks[3:]) < 35


def test_zero_form_not_stable():
    rep = stability_check(zero_form(7, 3))
    assert not rep.stable
    assert rep.metric is None


def test_stability_open_under_perturbation():
    rng = np.random.default_rng(5)
    phi0 = flat_g2_form()
    for _ in range(5):
        noise = Form(7, 3, 1e-2 * rng.standard_normal(35))
        rep = stability_check(phi0 + noise)
        assert rep.stable
        assert rep.stabilizer_dimension == 14


def test_stability_rejects_bad_input():
    with pytest.raises(ValueError):
        stability_check(basis_form(6, (1, 2, 3)))


# -- Fernandez-Gray --------------------------------------------------------------


def test_fernandez_gray_fixture():
    alg, s = nk_structure()
    with pytest.raises(ValueError, match="unit-lambda"):
        fernandez_gray_check(alg, s)
    snorm = normalize_to_unit_lambda(s)
    fg = fernandez_gray_check(alg, snorm)
    assert fg.d_rho_residual == 0.0
    assert fg.dstar_rho_residual < 1e-9
    assert fg.star_formula_residual < 1e-10
    assert fg_passes(fg)
    # the rotation relation at unit lambda: the slot action of J on d omega is 3 Im Omega
    i_domega = snorm.Omega.imag()
    slot_action = j_multiplicative(snorm.form.frame.J, d_invariant(alg, snorm.form.omega))
    rot_res = ((1.0 / 3.0) * slot_action - i_domega).norm() / max(1.0, i_domega.norm())
    assert rot_res < 1e-10
    assert abs(s.lam - 2.0) < 1e-12  # the rescale factor


def test_fernandez_gray_negative_control():
    # a structure violating the second shape equation keeps d rho = 0 but
    # acquires a co-closedness defect
    mp = catalog("s3s3_perturbed", seed=11)
    alg, Jp = mp.algebra(), AlmostComplexStructure(mp.J)
    from nkvol.hermitian_torsion import conformal_solve
    from nkvol.frame_manifold import d_invariant

    omega = Form(6, 2, conformal_solve(nijenhuis_via_brackets(alg, Jp)).normalized_omega)
    p30 = bidegree_project(Jp, d_invariant(alg, omega), 3, 0)
    u = np.sqrt(norm30_wedge_route(omega, p30))
    s_bad = SU3Structure(HermitianForm(Jp.frame(), omega), (1.0 / u) * p30, 2.0 * u / 3.0)
    fg = fernandez_gray_check(alg, normalize_to_unit_lambda(s_bad))
    assert fg.d_rho_residual == 0.0
    assert fg.dstar_rho_residual > 1e-4


# -- metric roundtrip -------------------------------------------------------------


def test_metric_roundtrip_fixture():
    alg, s = nk_structure()
    with pytest.raises(ValueError, match="unit-lambda"):
        metric_roundtrip(alg, s)
    mr = metric_roundtrip(alg, normalize_to_unit_lambda(s))
    assert mr.stable
    assert mr.stabilizer_dimension == 14
    assert abs(mr.ratio - RATIO_FIXTURE) < 1e-12
    assert mr.ratio_spread < 1e-9


def test_metric_roundtrip_flat_plant_same_constant():
    # planted flat data: rho = 3 t^2 omega0 ^ dt + t^3 (3 Re Omega0)
    w0, O0 = flat_su3_forms()
    rho = ConeForm(3, 3.0 * O0.real(), 3.0 * w0)
    rep = stability_check(rho.at_t(1.0))
    assert rep.stable
    ratio = float(np.sum(rep.metric * np.eye(7)) / 7.0)
    assert abs(ratio - RATIO_FIXTURE) < 1e-12
    assert np.max(np.abs(rep.metric - ratio * np.eye(7))) < 1e-12


def test_metric_roundtrip_broken_anisotropy():
    m = catalog("s3s3")
    alg, J = m.algebra(), AlmostComplexStructure(m.J)
    w = -1.0 * wedge(basis_form(6, (1,)), basis_form(6, (4,)))
    w = w + -1.0 * wedge(basis_form(6, (2,)), basis_form(6, (5,)))
    w = w + -5.0 * wedge(basis_form(6, (3,)), basis_form(6, (6,)))
    from nkvol.frame_manifold import d_invariant

    p30 = bidegree_project(J, d_invariant(alg, w), 3, 0)
    u = np.sqrt(norm30_wedge_route(w, p30))
    s_bad = SU3Structure(HermitianForm(J.frame(), w), (1.0 / u) * p30, 2.0 * u / 3.0)
    mr = metric_roundtrip(alg, normalize_to_unit_lambda(s_bad))
    if mr.stable:
        assert mr.ratio_spread > 1e-3
    else:
        assert mr.ratio is None and mr.ratio_spread is None
