"""Shared test utilities: random forms, random Lie algebras, evaluation oracles."""

from __future__ import annotations

from itertools import permutations
from math import comb, factorial

import numpy as np

from nkvol.multilinear import Form, index_tuples
from nkvol.frame_manifold import CoframeAlgebra, catalog
from nkvol.acs import AlmostComplexStructure, project_to_acs


def random_form(rng, n: int, k: int, real: bool = False) -> Form:
    c = rng.standard_normal(comb(n, k))
    if not real:
        c = c + 1j * rng.standard_normal(comb(n, k))
    return Form(n, k, c)


def random_vectors(rng, n: int, count: int, real: bool = False):
    out = []
    for _ in range(count):
        v = rng.standard_normal(n)
        if not real:
            v = v + 1j * rng.standard_normal(n)
        out.append(v)
    return out


def perm_sign(p) -> int:
    sign = 1
    p = list(p)
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign


def oracle_evaluate(a: Form, vectors) -> complex:
    """Leibniz-formula evaluation, independent of any determinant routine.

    a(X_1..X_k) = sum_I a_I sum_sigma sgn(sigma) prod_s X_sigma(s)[I_s].
    """
    total = 0.0 + 0.0j
    for c, idx in zip(a.coeffs, index_tuples(a.dimension, a.degree)):
        for sigma in permutations(range(a.degree)):
            term = perm_sign(sigma) * c
            for s, i in enumerate(idx):
                term *= vectors[sigma[s]][i - 1]
            total += term
    return total


def oracle_wedge_evaluate(a: Form, b: Form, vectors) -> complex:
    """Antisymmetrized-sum evaluation of a ^ b, independent of the wedge code.

    (a ^ b)(X_1..X_{p+q}) = 1/(p! q!) sum_sigma sgn(sigma)
        a(X_sigma(first p)) b(X_sigma(last q)).
    """
    p, q = a.degree, b.degree
    total = 0.0 + 0.0j
    for sigma in permutations(range(p + q)):
        s = perm_sign(sigma)
        av = a.evaluate([vectors[sigma[i]] for i in range(p)]) if p else a.coeffs[0]
        bv = b.evaluate([vectors[sigma[p + i]] for i in range(q)]) if q else b.coeffs[0]
        total += s * av * bv
    return total / (factorial(p) * factorial(q))


# -- Lie algebra generators ---------------------------------------------------

def _basis_change(c: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Structure constants after the frame change e'_j = S e_j (valid stays valid)."""
    Sinv = np.linalg.inv(S)
    return np.einsum("ia,ajk,jb,kc->ibc", Sinv, c, S, S)


def _named_constants(kind: str) -> np.ndarray:
    c = np.zeros((6, 6, 6))
    if kind == "abelian":
        return c
    if kind == "su2su2":
        return catalog("s3s3").structure_constants.copy()
    if kind == "su2r3":
        cc = catalog("s3s3").structure_constants.copy()
        cc[:, 3:, :] = 0.0
        cc[:, :, 3:] = 0.0
        cc[3:, :, :] = 0.0
        return cc
    if kind == "heisenberg":
        # d e^6 = e^12, d e^5 = e^34: two-step nilpotent
        c[5, 0, 1] = -1.0
        c[5, 1, 0] = 1.0
        c[4, 2, 3] = -1.0
        c[4, 3, 2] = 1.0
        return c
    raise ValueError(kind)


def random_valid_algebra(rng, kinds=("su2su2", "su2r3", "heisenberg", "abelian")) -> CoframeAlgebra:
    """A Jacobi-satisfying 6-dimensional algebra in a random frame."""
    kind = kinds[rng.integers(len(kinds))]
    c = _named_constants(kind)
    S = np.eye(6) + 0.3 * rng.standard_normal((6, 6))
    while abs(np.linalg.det(S)) < 1e-2:
        S = np.eye(6) + 0.3 * rng.standard_normal((6, 6))
    cc = _basis_change(c, S)
    # exact antisymmetry survives the einsum only up to rounding; enforce it
    cc = 0.5 * (cc - np.swapaxes(cc, 1, 2))
    return CoframeAlgebra(cc)


def random_invalid_constants(rng) -> CoframeAlgebra:
    """Antisymmetric constants that genuinely violate the Jacobi identity.

    A single perturbed constant often still satisfies Jacobi (diagonal
    3-dimensional blocks always do), so candidates are re-drawn until the
    cyclic bracket sum is visibly nonzero.
    """
    while True:
        alg = random_valid_algebra(rng, kinds=("su2su2", "heisenberg"))
        c = alg.structure_constants.copy()
        for _ in range(3):
            i, j, k = (int(x) for x in rng.integers(6, size=3))
            if j == k:
                continue
            bump = 0.1 + rng.random()
            c[i, j, k] += bump
            c[i, k, j] -= bump
        cyc = (
            np.einsum("mjk,lim->lijk", c, c)
            + np.einsum("mki,ljm->lijk", c, c)
            + np.einsum("mij,lkm->lijk", c, c)
        )
        if np.max(np.abs(cyc)) > 1e-6:
            return CoframeAlgebra(c)


def random_acs(rng, n: int = 6) -> AlmostComplexStructure:
    """Random well-conditioned J with exactly J^2 = -Id (conjugated block)."""
    J0 = np.zeros((n, n))
    for k in range(0, n, 2):
        J0[k, k + 1] = 1.0
        J0[k + 1, k] = -1.0
    while True:
        S = np.eye(n) + 0.4 * rng.standard_normal((n, n))
        if np.linalg.cond(S) < 25.0:
            break
    return AlmostComplexStructure(project_to_acs(S @ J0 @ np.linalg.inv(S)))
