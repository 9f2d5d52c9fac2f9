"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance below is pinned, nothing is calibrated at run time.
"""

import json
import subprocess
import sys

import numpy as np

from nkvol.multilinear import Form, Metric, basis_form, hodge_star, wedge
from nkvol.frame_manifold import catalog, check_jacobi
from nkvol.acs import AlmostComplexStructure
from nkvol.conventions import KAPPA_CONV
from nkvol.hermitian_torsion import HermitianForm, alt12_analysis, conformal_solve
from nkvol.nijenhuis import cartan_compatibility, nijenhuis_via_brackets, nijenhuis_via_d
from nkvol.nk_su3 import SU3Structure, nk_equivalence_suite, solve_Omega
from nkvol.g2_cone import (build_cone_3form, fernandez_gray_check, metric_roundtrip,
                           normalize_to_unit_lambda, stability_check)
from nkvol.variation_opt import (
    Deformation,
    criticality_test,
    delta_basis,
    find_critical,
)

from helpers import (
    FIXTURE,
    bidegree_project,
    candidate_coeffs,
    flat_g2_form,
    inner_product,
    is_critical,
    metric_volume_form,
    nk_fixture,
    psi_gradient_analytic,
    psi_gradient_fd,
    random_acs,
    random_form,
    random_invalid_constants,
    random_valid_algebra,
)


def _verdict(num: int, name: str, ok: bool):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, f"criterion {num} failed: {name}"


def test_criterion_01_exterior_calculus_soundness():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(50):
        rep = check_jacobi(random_valid_algebra(rng))
        ok &= rep.holds and rep.residual_bracket <= 1e-9
    for _ in range(50):
        rep = check_jacobi(random_invalid_constants(rng))
        ok &= (not rep.holds) and rep.residual_bracket > 1e-9
    # Hodge defining relation at 1e-12 on random metrics and degrees
    for _ in range(20):
        A = rng.standard_normal((6, 6))
        g = Metric(A @ A.T + 6 * np.eye(6))
        k = int(rng.integers(0, 7))
        a, b = random_form(rng, 6, k), random_form(rng, 6, k)
        lhs = wedge(a, hodge_star(g, b))
        rhs = inner_product(g, a, b) * metric_volume_form(g)
        scale = max(1.0, lhs.norm(), rhs.norm())
        ok &= (lhs - rhs).norm() <= 1e-12 * scale
    _verdict(1, "d*d = 0 iff Jacobi on 100 constant sets; Hodge relation at 1e-12", ok)


def test_criterion_02_two_route_nijenhuis():
    ok = True
    m = catalog("s3s3")
    alg, J = m.algebra(), AlmostComplexStructure(m.J)
    fr = J.frame()
    d1 = nijenhuis_via_brackets(alg, J, frame=fr).matrix
    d2 = nijenhuis_via_d(alg, J, frame=fr).matrix
    ok &= np.max(np.abs(d1 - d2)) <= 1e-12 * max(1.0, np.max(np.abs(d1)))
    t = catalog("torus6")
    talg, tJ = t.algebra(), AlmostComplexStructure(t.J)
    ok &= np.max(np.abs(nijenhuis_via_brackets(talg, tJ).matrix)) == 0.0
    ok &= np.max(np.abs(nijenhuis_via_d(talg, tJ).matrix)) == 0.0
    rng = np.random.default_rng(202)
    for _ in range(100):
        alg_i = random_valid_algebra(rng)
        J_i = random_acs(rng)
        fr_i = J_i.frame()
        a = nijenhuis_via_brackets(alg_i, J_i, frame=fr_i).matrix
        b = nijenhuis_via_d(alg_i, J_i, frame=fr_i).matrix
        ok &= np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))
    _verdict(2, "bracket route = d-route after the frozen constant, 1e-12", ok)


def test_criterion_03_cartan_identity():
    rng = np.random.default_rng(303)
    ok = True
    done = 0
    while done < 50:
        alg = random_valid_algebra(rng)
        J = random_acs(rng)
        w = bidegree_project(J, random_form(rng, 6, 2), 1, 1)
        if w.norm() < 1e-6:
            continue
        ok &= cartan_compatibility(alg, nijenhuis_via_brackets(alg, J), w) < 1e-10
        done += 1
    _verdict(3, "d^{2,-1} on (1,1) equals wedge(Id x N*), residual < 1e-10 x50", ok)


def test_criterion_04_alt12_ranks():
    m = catalog("s3s3")
    rep = alt12_analysis(AlmostComplexStructure(m.J))
    ok = (rep.rank_full == 90 and rep.rank_hermitian == 54
          and rep.span_with_cokernel == 72 and rep.target_dimension == 72)
    _verdict(4, "Alt_12 ranks 90 / 54, image + 3-form block spans 72", ok)


def test_criterion_05_conformal_uniqueness():
    m = catalog("s3s3")
    alg, J = m.algebra(), AlmostComplexStructure(m.J)
    rep = conformal_solve(nijenhuis_via_brackets(alg, J))
    ok = rep.solution_dimension == 1 and rep.positive
    # plant-and-recover against the known product direction
    w0 = -1.0 * (wedge(basis_form(6, (1,)), basis_form(6, (4,)))
                 + wedge(basis_form(6, (2,)), basis_form(6, (5,)))
                 + wedge(basis_form(6, (3,)), basis_form(6, (6,))))
    ratios = np.array([
        (candidate_coeffs(rep)[i] / w0.coeffs[i]).real
        for i in range(15) if abs(w0.coeffs[i]) > 1e-9
    ])
    ok &= np.max(np.abs(ratios - ratios[0])) < 1e-10 * abs(ratios[0])
    _verdict(5, "conformal solution space is one positive ray; recovery spread < 1e-10", ok)


def test_criterion_06_nk_flagship():
    mp = catalog("s3s3_perturbed", seed=7, magnitude=0.05)
    alg = mp.algebra()
    res = find_critical(alg, AlmostComplexStructure(mp.J))
    ok = res.converged and res.trace[-1] < 1e-12
    suite = res.suite
    ok &= suite is not None and suite.all_true
    eq = suite.equation_report
    ok &= max(eq.r1, eq.r2, eq.r3) < 1e-9
    ok &= suite.nabla_report.antisymmetry_residual < 1e-9
    ok &= suite.nabla_report.strictness_min > 0
    # uniqueness corollary: a rescaled solution stays a solution with a
    # constant component ratio
    omega = res.form.omega
    h2 = HermitianForm(res.J.frame(), 2.25 * omega)
    nij2 = nijenhuis_via_brackets(alg, res.J)
    s2 = solve_Omega(alg, nij2, h2)
    ok &= s2.ok and nk_equivalence_suite(alg, nij2, h2).all_true
    ratios = np.array([
        (h2.omega.coeffs[i] / omega.coeffs[i]).real
        for i in range(15) if abs(omega.coeffs[i]) > 1e-9
    ])
    ok &= np.max(np.abs(ratios - ratios[0])) < 1e-10 * abs(ratios[0])
    _verdict(6, "optimizer reaches R < 1e-12; all three conditions < 1e-9; strict", ok)


def test_criterion_07_g2_cone():
    alg, J, omega, Omega3 = nk_fixture()
    h = HermitianForm(J.frame(), omega)
    solved = solve_Omega(alg, nijenhuis_via_brackets(alg, J), h)
    snorm = normalize_to_unit_lambda(SU3Structure(h, solved.Omega, solved.lam))
    fg = fernandez_gray_check(alg, snorm)
    ok = fg.d_rho_residual == 0.0
    ok &= fg.star_formula_residual < 1e-10
    ok &= fg.dstar_rho_residual < 1e-9
    mr = metric_roundtrip(alg, snorm)
    ok &= mr.stable and mr.ratio_spread < 1e-9
    # B is genuinely positive definite at t = 1, not merely definite
    ok &= stability_check(build_cone_3form(snorm.form.omega, alg).at_t(1.0)).orientation_sign == 1
    rep = stability_check(flat_g2_form())
    ok &= rep.stable and rep.stabilizer_dimension == 14
    _verdict(7, "cone form closed and coclosed; dual display termwise; metric ratio; nullity 14", ok)


def test_criterion_08_variation_calculus():
    # one frozen constant across three structurally distinct bases
    m = catalog("s3s3")
    cases = []
    cases.append((m.algebra(), AlmostComplexStructure(m.J)))
    c = m.structure_constants.copy()
    c[:, 3:, :] = 0.0
    c[:, :, 3:] = 0.0
    c[3:, :, :] = 0.0
    from nkvol.frame_manifold import CoframeAlgebra

    cases.append((CoframeAlgebra(c), AlmostComplexStructure(m.J)))
    c2 = m.structure_constants.copy()
    c2[3:, 3:, 3:] *= 2.0
    cases.append((CoframeAlgebra(c2), AlmostComplexStructure(m.J)))

    rng = np.random.default_rng(808)
    ok = KAPPA_CONV == 64.0
    for alg, J in cases:
        omega = Form(6, 2, conformal_solve(nijenhuis_via_brackets(alg, J)).normalized_omega)
        for _ in range(50):
            d = Deformation(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            ana = psi_gradient_analytic(alg, J, omega, d)
            fd = psi_gradient_fd(alg, J, d)
            if abs(fd) > 1e-7:
                ok &= abs(ana - fd) / abs(fd) < 1e-6

    algf, Jf, omegaf, _ = nk_fixture()
    comps = [psi_gradient_analytic(algf, Jf, omegaf, d) for d in delta_basis()]
    ok &= max(abs(x) for x in comps) < 1e-8

    # verdict-gradient biconditional on every tested structure
    structures = cases + [(algf, Jf)]
    for seed in (2, 4):
        mp = catalog("s3s3_perturbed", seed=seed)
        structures.append((mp.algebra(), AlmostComplexStructure(mp.J)))
    for alg, J in structures:
        nij = nijenhuis_via_brackets(alg, J)
        omega = Form(6, 2, conformal_solve(nij).normalized_omega)
        rep = criticality_test(alg, nij, HermitianForm(J.frame(), omega))
        gmax = max(abs(psi_gradient_analytic(alg, J, omega, d)) for d in delta_basis())
        ok &= (rep.residual <= 1e-8) == (gmax <= 1e-7)
    _verdict(8, "analytic gradient = FD at one constant (<1e-6); critical components <1e-8", ok)


def test_criterion_09_theorem_roundtrip():
    ok = True
    # critical => suite true and suite true => critical, on the fixture
    algf, Jf, omegaf, _ = nk_fixture()
    nijf = nijenhuis_via_brackets(algf, Jf)
    hf = HermitianForm(Jf.frame(), omegaf)
    rep = criticality_test(algf, nijf, hf)
    suite = nk_equivalence_suite(algf, nijf, hf)
    ok &= is_critical(rep) and suite.all_true
    # catalog s3s3: not critical, suite not all true
    m = catalog("s3s3")
    alg, J = m.algebra(), AlmostComplexStructure(m.J)
    nij = nijenhuis_via_brackets(alg, J)
    h = conformal_solve(nij).form(nij.frame)
    ok &= not is_critical(criticality_test(alg, nij, h))
    ok &= not nk_equivalence_suite(alg, nij, h).all_true
    # torus: degenerate, excluded from the theorem's scope
    t = catalog("torus6")
    tnij = nijenhuis_via_brackets(t.algebra(), AlmostComplexStructure(t.J))
    ok &= criticality_test(t.algebra(), tnij).verdict == "degenerate"
    # ten seeded perturbations: non-critical with residual > 1e-4, suites false
    for seed in range(10):
        mp = catalog("s3s3_perturbed", seed=seed)
        palg, pJ = mp.algebra(), AlmostComplexStructure(mp.J)
        pnij = nijenhuis_via_brackets(palg, pJ)
        w = conformal_solve(pnij).form(pnij.frame)
        crep = criticality_test(palg, pnij, w)
        ok &= (not is_critical(crep)) and crep.residual > 1e-4
        psuite = nk_equivalence_suite(palg, pnij, w)
        ok &= (not psuite.all_true) and psuite.consistent()
    _verdict(9, "critical <=> special-structure suite across catalog + 10 perturbations", ok)


def test_criterion_10_determinism(tmp_path):
    def run_cli(*args):
        return subprocess.run([sys.executable, "-m", "nkvol.cli", *args],
                              capture_output=True, text=True)

    a = run_cli("nk", str(FIXTURE), "--json")
    b = run_cli("nk", str(FIXTURE), "--json")
    ok = a.returncode == 0 and a.stdout == b.stdout

    src = tmp_path / "p7.json"
    run_cli("catalog", "emit", "s3s3_perturbed", "--seed", "7", "--out", str(src))
    o1 = run_cli("optimize", str(src), "--json")
    o2 = run_cli("optimize", str(src), "--json")
    ok &= o1.returncode == 0 and o1.stdout == o2.stdout
    trace = json.loads(o1.stdout)["checks"]["trace"]
    ok &= all(trace[i + 1] <= trace[i] for i in range(len(trace) - 1))
    _verdict(10, "byte-identical JSON reruns; optimizer trace monotone", ok)
