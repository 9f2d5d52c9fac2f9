"""Property-based identities: d^2 = 0 exactly when the Jacobi identity holds, the
Leibniz rule for d, the two Nijenhuis routes, the volume density under frame
changes and rescaling, the stacked residual kernel against the single-structure
path, the C-map route to rho = omega(N(.,.),.) against the N-vector oracle, and
the conformal candidate under unitary changes of the (1,0) frame.

Examples are drawn by hypothesis under the derandomized profile of conftest.py;
the structures come from the seeded generators in helpers.py.
"""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nkvol.multilinear import Form, wedge
from nkvol.frame_manifold import CoframeAlgebra, catalog, check_jacobi, d_invariant
from nkvol.acs import AlmostComplexStructure, default_frame_coords
from nkvol.nijenhuis import (nijenhuis_matrices, nijenhuis_via_brackets, nijenhuis_via_d,
                             rho_skew_coefficient)
from nkvol.hermitian_torsion import (_hermitian_form_coeffs, _skew_part, conformal_stack,
                                     torsion_criterion)
from nkvol.variation_opt import _offshape, psi_value

from helpers import (_basis_change, _rho_components, forms_close, random_acs, random_form,
                     random_invalid_constants, random_valid_algebra)
from test_variation_opt import assert_stack_matches_scalar, nk_fixture, su2r3

SEEDS = st.integers(0, 2**32 - 1)
JACOBI_TOL = 1e-9  # on the bracket's cyclic sum; valid draws reach 9.8e-13, invalid ones exceed 0.11
DD_REL_TOL = 1e-10  # |d d a| / |a|; the worst of 400 seeded valid draws was 2.0e-12
LEIBNIZ_TOL = 1e-11  # as `forms_close`; the worst of 400 seeded draws was 4.3e-14
ROUTES_REL_TOL = 1e-12  # relative to max(1, |N*|); the worst of 400 seeded draws was 3.1e-15
PSI_REL_TOL = 1e-11  # relative; the worst of 400 seeded draws was 1.3e-13
CMAP_REL_TOL = 1e-12  # relative to max |rho|; the worst of 1000 seeded draws was 6.7e-15
FRAME_REL_TOL = 1e-12  # relative; the worst of 200 seeded draws was 5.8e-15


@given(SEEDS, st.booleans(), st.integers(1, 4))
def test_d_squared_vanishes_iff_jacobi_holds(seed, valid, k):
    # the identity is read from the bracket's cyclic sum, independently of d; a
    # violated identity already shows on a random 1-form
    rng = np.random.default_rng(seed)
    alg = random_valid_algebra(rng) if valid else random_invalid_constants(rng)
    holds = check_jacobi(alg).residual_bracket <= JACOBI_TOL
    a = random_form(rng, 6, k if holds else 1)
    assert (d_invariant(alg, d_invariant(alg, a)).norm() <= DD_REL_TOL * a.norm()) == holds


@given(SEEDS, st.integers(1, 3), st.integers(1, 2))
def test_d_obeys_the_leibniz_rule(seed, ka, kb):
    rng = np.random.default_rng(seed)
    alg = random_valid_algebra(rng)
    a, b = random_form(rng, 6, ka), random_form(rng, 6, kb)
    lhs = d_invariant(alg, wedge(a, b))
    rhs = wedge(d_invariant(alg, a), b) + (-1) ** ka * wedge(a, d_invariant(alg, b))
    assert forms_close(lhs, rhs, tol=LEIBNIZ_TOL)


@given(SEEDS)
def test_nijenhuis_routes_agree_in_the_bracket_frame(seed):
    rng = np.random.default_rng(seed)
    alg, J = random_valid_algebra(rng), random_acs(rng)
    a = nijenhuis_via_brackets(alg, J)
    b = nijenhuis_via_d(alg, J, frame=a.frame)
    assert np.max(np.abs(a.matrix - b.matrix)) <= ROUTES_REL_TOL * max(1.0, np.max(np.abs(a.matrix)))


def nondegenerate_structure(seed: int):
    """A random algebra with a nondegenerate Nijenhuis tensor for most J, and a random J."""
    rng = np.random.default_rng(seed)
    return random_valid_algebra(rng, kinds=("su2su2", "su2r3")), random_acs(rng)


@given(SEEDS, arrays(np.float64, (6, 6), elements=st.floats(-1.0, 1.0)))
def test_psi_is_a_density_under_frame_changes(seed, X):
    # e'_j = S e_j moves the constants to c' and J to S^-1 J S; psi e^1..6 is invariant
    alg, J = nondegenerate_structure(seed)
    S = np.eye(6) + 0.3 * X
    assume(np.linalg.cond(S) < 25.0)
    c = _basis_change(alg.structure_constants, S)
    c = 0.5 * (c - np.swapaxes(c, 1, 2))  # antisymmetric again after rounding
    Jp = AlmostComplexStructure(np.linalg.solve(S, J.matrix @ S))
    expected = abs(np.linalg.det(S)) * psi_value(alg, J)
    assume(expected > 0.0)
    assert abs(psi_value(CoframeAlgebra(c), Jp) - expected) <= PSI_REL_TOL * expected


@given(SEEDS, st.floats(0.25, 4.0), st.booleans())
def test_psi_is_homogeneous_of_degree_six(seed, s, negate):
    alg, J = nondegenerate_structure(seed)
    s = -s if negate else s
    expected = s**6 * psi_value(alg, J)
    assume(expected > 0.0)
    scaled = CoframeAlgebra(s * alg.structure_constants)
    assert abs(psi_value(scaled, J) - expected) <= PSI_REL_TOL * expected


@given(st.sampled_from(("fixture", "perturbed", "su2r3")),
       arrays(np.float64, (2, 4, 3, 3), elements=st.floats(-0.1, 0.1)))
def test_stacked_residuals_match_scalar_path_on_random_deltas(case, parts):
    if case == "fixture":
        alg, J = nk_fixture()[:2]
    elif case == "perturbed":
        mp = catalog("s3s3_perturbed", seed=7)
        alg, J = mp.algebra(), AlmostComplexStructure(mp.J)
    else:
        alg, J = su2r3()
    assert_stack_matches_scalar(alg, J, parts[0] + 1j * parts[1])


@given(SEEDS)
def test_c_map_rho_matches_the_n_vector_oracle(seed):
    # torsion_criterion reads rho as -C(A M^T); the oracle evaluates omega(N^d, v_c)
    # on the N vectors.  The shared skew coefficient is the skew part at (1, 2, 3)
    rng = np.random.default_rng(seed)
    alg, J = random_valid_algebra(rng), random_acs(rng)
    fr = J.frame()
    X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    omega = Form(6, 2, _hermitian_form_coeffs(fr.theta_coeffs, X @ X.conj().T + 0.1 * np.eye(3)))
    ref = _rho_components(alg, J, omega, fr)
    tol = CMAP_REL_TOL * np.max(np.abs(ref))
    nij = nijenhuis_via_brackets(alg, J, frame=fr)
    assert np.max(np.abs(torsion_criterion(nij, omega).rho - ref)) <= tol
    c = rho_skew_coefficient(fr.components(omega)[:3, 3:], nij.matrix)
    assert abs(c - _skew_part(ref)[0, 1, 2]) <= tol


@given(SEEDS, st.floats(0.05, 1.0))
def test_conformal_candidate_depends_on_j_alone(seed, magnitude):
    # the frame (U theta, V U^-1) is as orthonormal as the default one for unitary U;
    # the normalized candidate and the optimizer's residual vector must not notice
    mp = catalog("s3s3_perturbed", seed=seed, magnitude=magnitude)
    alg, Jm = mp.algebra(), mp.J
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    frames = [default_frame_coords(Jm)]
    frames.append((U @ frames[0][0], frames[0][1] @ U.conj().T))
    omegas, offs = [], []
    for theta, V in frames:
        stack = conformal_stack(nijenhuis_matrices(alg, Jm, theta, V), theta)
        assert stack.normalizable
        omegas.append(stack.normalized_omega)
        offs.append(_offshape(alg, theta, V, stack.normalized_omega))
    for a, b in (omegas, offs):
        assert np.max(np.abs(a - b)) <= FRAME_REL_TOL * np.max(np.abs(a))
