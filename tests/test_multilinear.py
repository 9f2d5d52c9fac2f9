"""Exterior algebra: wedge convention, interior product, Hodge duality, and the
compound and derivation actions of a matrix."""

import numpy as np
import pytest

from nkvol.multilinear import (
    Form,
    Metric,
    basis_form,
    compound,
    contract,
    hodge_star,
    substitution,
    wedge,
)

from helpers import (forms_close, inner_product, metric_volume_form, oracle_evaluate,
                     oracle_wedge_evaluate, random_form, random_vectors, zero_form)


def test_basis_products():
    e1 = basis_form(6, (1,))
    e2 = basis_form(6, (2,))
    assert forms_close(wedge(e1, e2), basis_form(6, (1, 2)))
    assert wedge(e1, e1).norm() == 0.0


def test_evaluate_against_leibniz_oracle():
    rng = np.random.default_rng(70)
    for k in range(1, 8):
        a = random_form(rng, 7, k)
        vecs = random_vectors(rng, 7, k)
        oracle = oracle_evaluate(a, vecs)
        assert abs(a.evaluate(vecs) - oracle) <= 1e-10 * max(1.0, abs(oracle))


def _apply(op, a: Form) -> Form:
    """Apply a degree-preserving operator given as a function of the degree."""
    return Form(a.dimension, a.degree, op(a.degree) @ a.coeffs)


def test_compound_is_multiplicative():
    rng = np.random.default_rng(71)
    for n, k in ((6, 1), (6, 2), (6, 3), (6, 4), (6, 5), (6, 6), (7, 3)):
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        N = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lhs = compound(M @ N, k)
        rhs = compound(M, k) @ compound(N, k)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(lhs)))
    L = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    power = lambda k: compound(L, k)
    for ka, kb in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3)):
        a, b = random_form(rng, 6, ka), random_form(rng, 6, kb)
        assert forms_close(_apply(power, wedge(a, b)),
                           wedge(_apply(power, a), _apply(power, b)), tol=1e-10)


def test_derivation_is_derivative_of_compound():
    rng = np.random.default_rng(72)
    h = 1e-5
    for n, k in ((6, 1), (6, 2), (6, 3), (6, 4), (6, 5), (7, 3)):
        M = 0.5 * rng.standard_normal((n, n))
        eye = np.eye(n)
        fd = (compound(eye + h * M, k) - compound(eye - h * M, k)) / (2.0 * h)
        assert np.max(np.abs(substitution(M, 1, k) - fd)) <= 1e-7 * max(1.0, np.max(np.abs(fd)))
    L = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    derivation = lambda k: substitution(L, 1, k)
    for ka, kb in ((1, 1), (1, 2), (2, 2), (2, 3), (1, 4)):
        a, b = random_form(rng, 6, ka), random_form(rng, 6, kb)
        lhs = _apply(derivation, wedge(a, b))
        rhs = wedge(_apply(derivation, a), b) + wedge(a, _apply(derivation, b))
        assert forms_close(lhs, rhs, tol=1e-10)


def test_wedge_sign_example():
    # (e^1 + e^2) ^ e^{13}: the e^2 ^ e^{13} = -e^{123} piece survives
    a = basis_form(6, (1,)) + basis_form(6, (2,))
    b = basis_form(6, (1, 3))
    expect = -1.0 * basis_form(6, (1, 2, 3))
    assert forms_close(wedge(a, b), expect)


def test_wedge_against_antisymmetrizer_oracle():
    rng = np.random.default_rng(1234)
    for n in (4, 6, 7):
        for ka in (1, 2, 3):
            for kb in (1, 2):
                if ka + kb > n:
                    continue
                a = random_form(rng, n, ka)
                b = random_form(rng, n, kb)
                w = wedge(a, b)
                for _ in range(3):
                    vecs = random_vectors(rng, n, ka + kb)
                    direct = w.evaluate(vecs)
                    oracle = oracle_wedge_evaluate(a, b, vecs)
                    assert abs(direct - oracle) <= 1e-10 * max(1.0, abs(oracle))


def test_graded_commutativity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        ka, kb = rng.integers(1, 4), rng.integers(1, 4)
        if ka + kb > 6:
            continue
        a = random_form(rng, 6, int(ka))
        b = random_form(rng, 6, int(kb))
        lhs = wedge(a, b)
        rhs = ((-1) ** (ka * kb)) * wedge(b, a)
        assert forms_close(lhs, rhs)


def test_wedge_associative_bilinear():
    rng = np.random.default_rng(8)
    a = random_form(rng, 6, 1)
    b = random_form(rng, 6, 2)
    c = random_form(rng, 6, 2)
    assert forms_close(wedge(wedge(a, b), c), wedge(a, wedge(b, c)))
    s = 2.5 - 1.0j
    assert forms_close(wedge(s * a, b), s * wedge(a, b))
    assert forms_close(wedge(a + a, b), 2.0 * wedge(a, b))


def test_wedge_rejections():
    a = basis_form(6, (1,))
    b = basis_form(4, (1,))
    with pytest.raises(ValueError):
        wedge(a, b)
    top = basis_form(4, (1, 2, 3, 4))
    with pytest.raises(ValueError):
        wedge(top, basis_form(4, (1,)))


def test_contract_basics():
    e12 = basis_form(6, (1, 2))
    v1 = np.array([1, 0, 0, 0, 0, 0.0])
    v3 = np.array([0, 0, 1, 0, 0, 0.0])
    assert forms_close(contract(v1, e12), basis_form(6, (2,)))
    assert contract(v3, e12).norm() == 0.0
    with pytest.raises(ValueError):
        contract(v1, zero_form(6, 0))


def test_contract_graded_leibniz():
    rng = np.random.default_rng(99)
    for _ in range(100):
        ka = int(rng.integers(1, 3))
        kb = int(rng.integers(1, 3))
        a = random_form(rng, 6, ka)
        b = random_form(rng, 6, kb)
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        lhs = contract(v, wedge(a, b))
        rhs = wedge(contract(v, a), b) + ((-1) ** ka) * wedge(a, contract(v, b))
        assert forms_close(lhs, rhs, tol=1e-11)


def test_contract_is_slot_evaluation():
    rng = np.random.default_rng(5)
    a = random_form(rng, 6, 3)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    others = random_vectors(rng, 6, 2)
    assert abs(contract(v, a).evaluate(others) - a.evaluate([v] + others)) < 1e-10


def test_hodge_euclidean_basics():
    g = Metric(np.eye(6))
    one = Form(6, 0, np.array([1.0 + 0j]))
    vol = metric_volume_form(g)
    assert forms_close(hodge_star(g, one), vol)
    assert forms_close(hodge_star(g, vol), one)
    g7 = Metric(np.eye(7))
    assert forms_close(hodge_star(g7, basis_form(7, (1, 2, 3))), basis_form(7, (4, 5, 6, 7)))


def test_hodge_double_dual_signs():
    rng = np.random.default_rng(31)
    for n in (6, 7):
        g = Metric(np.eye(n))
        for k in range(0, n + 1):
            a = random_form(rng, n, k)
            again = hodge_star(g, hodge_star(g, a))
            assert forms_close(again, ((-1) ** (k * (n - k))) * a)


def test_hodge_defining_relation_random_metric():
    rng = np.random.default_rng(17)
    for _ in range(10):
        A = rng.standard_normal((6, 6))
        g = Metric(A @ A.T + 6 * np.eye(6))
        vol = metric_volume_form(g)
        k = int(rng.integers(0, 7))
        a = random_form(rng, 6, k)
        b = random_form(rng, 6, k)
        lhs = wedge(a, hodge_star(g, b))
        rhs = inner_product(g, a, b) * vol
        assert forms_close(lhs, rhs, tol=1e-12)


def test_hodge_rejects_bad_metric():
    with pytest.raises(ValueError):
        Metric(np.diag([1.0, -1.0, 1, 1, 1, 1]))
    with pytest.raises(ValueError):
        Metric(np.triu(np.ones((6, 6))))


def test_addition_rules():
    a = basis_form(6, (1, 2))
    with pytest.raises(ValueError):
        a + basis_form(6, (1,))
    with pytest.raises(ValueError):
        a + basis_form(4, (1, 2))


def test_exact_zero_propagation():
    z = zero_form(6, 2)
    assert wedge(z, basis_form(6, (3,))).norm() == 0.0
    assert (z + z).norm() == 0.0
