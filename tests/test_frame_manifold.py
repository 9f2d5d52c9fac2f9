"""Invariant derivative, Jacobi gate, Koszul connection, manifests, catalog."""

import json

import numpy as np
import pytest

from nkvol.multilinear import Form, Metric, basis_form, wedge
from nkvol.conventions import CATALOG_NAMES
from nkvol.frame_manifold import (
    CoframeAlgebra,
    Manifest,
    catalog,
    check_jacobi,
    covariant_derivative_form,
    d_invariant,
    levi_civita,
)

from helpers import (forms_close, jacobi_residual, metric_volume_form, random_form,
                     random_invalid_constants, random_valid_algebra, zero_form)


def su2_plus_su2():
    return catalog("s3s3").algebra()


def test_d_abelian_is_zero():
    alg = CoframeAlgebra(np.zeros((6, 6, 6)))
    rng = np.random.default_rng(0)
    for k in (1, 2, 3):
        assert d_invariant(alg, random_form(rng, 6, k)).norm() == 0.0


def test_d_su2_maurer_cartan_oracle():
    alg = su2_plus_su2()
    c = alg.structure_constants
    # oracle: d e^i = -1/2 c^i_{jk} e^j ^ e^k, expanded literally over all (j, k)
    for i in range(6):
        expect = zero_form(6, 2)
        for j in range(6):
            for k in range(6):
                if c[i, j, k] != 0.0:
                    expect = expect + (-0.5 * c[i, j, k]) * wedge(
                        basis_form(6, (j + 1,)), basis_form(6, (k + 1,))
                    )
        assert forms_close(d_invariant(alg, basis_form(6, (i + 1,))), expect)
    # and the headline case of the stored normalization: d e^1 = e^{23}
    assert forms_close(d_invariant(alg, basis_form(6, (1,))), basis_form(6, (2, 3)))


def test_d_antiderivation_identity():
    rng = np.random.default_rng(2)
    for _ in range(25):
        alg = random_valid_algebra(rng)
        ka = int(rng.integers(1, 3))
        kb = int(rng.integers(1, 3))
        a = random_form(rng, 6, ka)
        b = random_form(rng, 6, kb)
        lhs = d_invariant(alg, wedge(a, b))
        rhs = wedge(d_invariant(alg, a), b) + ((-1) ** ka) * wedge(a, d_invariant(alg, b))
        assert forms_close(lhs, rhs, tol=1e-11)


def test_jacobi_reports():
    assert check_jacobi(su2_plus_su2()).holds
    assert jacobi_residual(check_jacobi(su2_plus_su2())) == 0.0
    assert check_jacobi(CoframeAlgebra(np.zeros((6, 6, 6)))).holds

    # Perturbing the diagonal constant c^1_{23} alone keeps the Jacobi identity
    # (any diagonal constants on a 3-dimensional block form a Lie algebra), so
    # the d^2 computation must report zero residual there ...
    c = su2_plus_su2().structure_constants.copy()
    c[0, 1, 2] += 0.1
    c[0, 2, 1] -= 0.1
    assert check_jacobi(CoframeAlgebra(c)).holds

    # ... while a block-mixing perturbation such as c^1_{15} genuinely breaks it.
    c = su2_plus_su2().structure_constants.copy()
    c[0, 0, 4] += 0.1
    c[0, 4, 0] -= 0.1
    rep = check_jacobi(CoframeAlgebra(c))
    assert not rep.holds
    assert jacobi_residual(rep) > 1e-3


def test_jacobi_two_routes_agree():
    rng = np.random.default_rng(3)
    for _ in range(100):
        alg = random_valid_algebra(rng) if rng.random() < 0.5 else random_invalid_constants(rng)
        rep = check_jacobi(alg)
        assert (rep.residual_dd <= 1e-9) == (rep.residual_bracket <= 1e-9)


def test_dd_zero_on_random_forms_when_jacobi():
    rng = np.random.default_rng(4)
    for _ in range(20):
        alg = random_valid_algebra(rng)
        k = int(rng.integers(1, 5))
        a = random_form(rng, 6, k)
        assert d_invariant(alg, d_invariant(alg, a)).norm() <= 1e-11 * max(1.0, a.norm())


def test_levi_civita_abelian_vanishes():
    alg = CoframeAlgebra(np.zeros((6, 6, 6)))
    rng = np.random.default_rng(11)
    A = rng.standard_normal((6, 6))
    g = Metric(A @ A.T + 6 * np.eye(6))
    assert np.max(np.abs(levi_civita(alg, g))) == 0.0


def test_levi_civita_biinvariant_su2():
    # for the bi-invariant metric, nabla_{e_i} e_j = 1/2 [e_i, e_j]
    alg = su2_plus_su2()
    g = Metric(np.eye(6))
    gamma = levi_civita(alg, g)
    half = 0.5 * np.einsum("kij->kij", alg.structure_constants)
    assert np.max(np.abs(gamma - half)) < 1e-13


def test_levi_civita_koszul_properties():
    rng = np.random.default_rng(12)
    alg = su2_plus_su2()
    for _ in range(20):
        A = rng.standard_normal((6, 6))
        g = Metric(A @ A.T + 6 * np.eye(6))
        gamma = levi_civita(alg, g)
        c = alg.structure_constants
        # torsion-free: Gamma^k_{ij} - Gamma^k_{ji} - c^k_{ij} = 0
        torsion = gamma - np.swapaxes(gamma, 1, 2) - c
        assert np.max(np.abs(torsion)) < 1e-12
        # metric parallel: d/dx_i g(e_j, e_k) = 0 = g(nabla_i e_j, e_k) + g(e_j, nabla_i e_k)
        gm = g.matrix
        dg = np.einsum("mij,mk->ijk", gamma, gm) + np.einsum("mik,jm->ijk", gamma, gm)
        assert np.max(np.abs(dg)) < 1e-12


def test_covariant_derivative_metric_volume_parallel():
    rng = np.random.default_rng(13)
    alg = su2_plus_su2()
    A = rng.standard_normal((6, 6))
    g = Metric(A @ A.T + 6 * np.eye(6))
    gamma = levi_civita(alg, g)
    vol = metric_volume_form(g)
    for da in covariant_derivative_form(gamma, vol):
        assert da.norm() < 1e-12


def test_covariant_derivative_abelian_zero():
    alg = CoframeAlgebra(np.zeros((6, 6, 6)))
    gamma = levi_civita(alg, Metric(np.eye(6)))
    rng = np.random.default_rng(14)
    a = random_form(rng, 6, 3)
    assert all(f.norm() == 0.0 for f in covariant_derivative_form(gamma, a))


def test_covariant_derivative_metric_two_tensor():
    # nabla g = 0 re-expressed through the induced 2-tensor components
    alg = su2_plus_su2()
    rng = np.random.default_rng(15)
    A = rng.standard_normal((6, 6))
    g = Metric(A @ A.T + 6 * np.eye(6))
    gamma = levi_civita(alg, g)
    gm = g.matrix
    nabla_g = np.einsum("mij,mk->ijk", gamma, gm) + np.einsum("mik,jm->ijk", gamma, gm)
    assert np.max(np.abs(nabla_g)) < 1e-12


# -- manifests ---------------------------------------------------------------

def test_manifest_roundtrip_catalog():
    for name in ("torus6", "s3s3"):
        m = catalog(name)
        again = Manifest.from_json(m.to_json())
        assert again.to_json() == m.to_json()
        assert np.array_equal(again.structure_constants, m.structure_constants)


def test_manifest_roundtrip_with_forms():
    m = catalog("s3s3")
    omega = Form(6, 2, np.arange(15, dtype=float) + 1j)
    Omega3 = Form(6, 3, np.arange(20, dtype=float) - 2j)
    full = Manifest(m.name, 6, m.structure_constants, J=m.J, metric=m.metric,
                    omega=omega, Omega3=Omega3)
    again = Manifest.from_json(full.to_json())
    assert again.to_json() == full.to_json()
    assert forms_close(again.omega, omega)
    assert forms_close(again.Omega3, Omega3)


def test_manifest_rejects_unknown_fields():
    d = catalog("s3s3").to_dict()
    d["extra"] = 1
    with pytest.raises(ValueError):
        Manifest.from_dict(d)


def test_manifest_rejects_bad_constants():
    d = catalog("s3s3").to_dict()
    d["structure_constants"][0]["j"], d["structure_constants"][0]["k"] = (
        d["structure_constants"][0]["k"],
        d["structure_constants"][0]["j"],
    )
    with pytest.raises(ValueError):
        Manifest.from_dict(d)


def test_manifest_rejects_malformed_json():
    with pytest.raises(json.JSONDecodeError):
        Manifest.from_json("{not json")


def test_manifest_rejects_bad_indices_and_shapes():
    base = {"name": "x", "dimension": 6, "structure_constants": []}
    with pytest.raises(ValueError):
        Manifest.from_dict({**base, "structure_constants": [
            {"i": 7, "j": 1, "k": 2, "value": 1.0}]})
    with pytest.raises(ValueError):
        Manifest.from_dict({**base, "J": [[0.0] * 5] * 5})
    with pytest.raises(ValueError):
        Manifest.from_dict({**base, "omega": [
            {"indices": [2, 1], "re": 1.0, "im": 0.0}]})
    with pytest.raises(ValueError):
        Manifest.from_dict({**base, "omega": [
            {"indices": [1, 2], "re": 1.0}]})
    with pytest.raises(ValueError):
        Manifest.from_dict({**base, "Omega3": [
            {"indices": [1, 2, 2], "re": 1.0, "im": 0.0}]})
    with pytest.raises(ValueError):
        Manifest.from_dict({**base, "dimension": 9})
    with pytest.raises(ValueError):
        Manifest.from_dict({"name": "x", "dimension": 6})
    # json.loads accepts NaN and Infinity; every numeric field rejects them
    for field, value in (
        ("structure_constants", [{"i": 1, "j": 2, "k": 3, "value": float("nan")}]),
        ("J", [[float("inf")] * 6] * 6),
        ("metric", [[float("nan")] * 6] * 6),
        ("omega", [{"indices": [1, 2], "re": 1.0, "im": float("-inf")}]),
        ("Omega3", [{"indices": [1, 2, 3], "re": float("nan"), "im": 0.0}]),
    ):
        with pytest.raises(ValueError, match="non-finite"):
            Manifest.from_json(json.dumps({**base, field: value}))
    # values of the wrong JSON type are rejected with the field named
    for field, value in (
        ("structure_constants", [{"i": 1, "j": 2, "k": 3, "value": None}]),
        ("omega", [{"indices": [1, 2], "re": "x", "im": 0.0}]),
        ("structure_constants", 5),
        ("omega", [{"indices": 5, "re": 1.0, "im": 0.0}]),
        ("dimension", True),
    ):
        with pytest.raises(ValueError, match=field):
            Manifest.from_json(json.dumps({**base, field: value}))


# -- catalog -----------------------------------------------------------------

def test_catalog_names():
    assert set(CATALOG_NAMES) == {"torus6", "s3s3", "s3s3_perturbed"}
    with pytest.raises(ValueError):
        catalog("nope")


def test_catalog_torus6():
    m = catalog("torus6")
    assert np.max(np.abs(m.structure_constants)) == 0.0
    # standard block J on the coframe: J e^1 = e^2, J e^2 = -e^1
    assert m.J[0, 1] == 1.0 and m.J[1, 0] == -1.0
    assert np.max(np.abs(m.J @ m.J + np.eye(6))) == 0.0


def test_catalog_s3s3():
    m = catalog("s3s3")
    nonzero = np.nonzero(m.structure_constants)
    assert len(nonzero[0]) == 12  # 6 independent constants, stored antisymmetrically
    assert check_jacobi(m.algebra()).holds
    # J maps the first-factor coframe to the second: J e^i = e^{i'}
    for i in range(3):
        assert m.J[i, i + 3] == 1.0
        assert m.J[i + 3, i] == -1.0


def test_catalog_s3s3_perturbed_deterministic():
    a = catalog("s3s3_perturbed", seed=7)
    b = catalog("s3s3_perturbed", seed=7)
    assert np.array_equal(a.J, b.J)
    assert np.max(np.abs(a.J @ a.J + np.eye(6))) < 1e-12
    base = catalog("s3s3")
    delta = np.linalg.norm(a.J - base.J, 2)
    assert 0.01 < delta < 0.12
    c = catalog("s3s3_perturbed", seed=8)
    assert not np.array_equal(a.J, c.J)
