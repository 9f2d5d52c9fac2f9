"""Exact exterior algebra over a small real vector space with complex coefficients.

Everything here is plain dense linear algebra: a degree-k form on an
n-dimensional space (n <= 7) is a complex coefficient vector indexed by the
strictly increasing k-tuples of coframe indices.  The wedge uses the
unnormalized "determinant" evaluation convention

    (a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X),

so basis products carry pure permutation signs and no factorials.  All
constants downstream (normalizations, duality factors) are derived under this
convention.

Every operator is built from two primitives over index tables cached per
(n, k).  The first is the k-th compound of a matrix, its k x k minors
det M[I, J]: evaluating a form is its coefficient vector dotted with the
minors of the stacked vectors, the multiplicative action of a map on
degree-k forms is the compound of the map, and the metric Gram matrix is the
compound of g^{-1}.  The second is the substitution operator

    e^J  ->  sum_s (-1)^s beta(e^{j_s}) ^ e^{J minus j_s}

for a linear beta from 1-forms to degree-p forms.  With p = 0 it is the
interior product, with p = 1 the derivation action of a map on forms, and
with beta(e^i) = d e^i the exterior derivative.  Both the substitution and
the wedge read one table, the wedge tensor, whose entries are the signs of
one permutation-sign helper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .conventions import TOLERANCES, within

__all__ = [
    "EPS3",
    "Form",
    "Metric",
    "basis_form",
    "compound",
    "contract",
    "definite_sign",
    "form_from_one_coeffs",
    "hodge_star",
    "index_tuples",
    "matvec",
    "substitution",
    "two_form_coeffs",
    "two_form_matrices",
    "wedge",
    "wedge_coeffs",
]


@lru_cache(maxsize=None)
def index_tuples(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All strictly increasing k-tuples from 1..n, lexicographic."""
    return tuple(combinations(range(1, n + 1), k))


@lru_cache(maxsize=None)
def _tuple_position(n: int, k: int) -> dict[tuple[int, ...], int]:
    return {t: i for i, t in enumerate(index_tuples(n, k))}


@lru_cache(maxsize=None)
def _index_array(n: int, k: int) -> np.ndarray:
    """index_tuples(n, k) as a 0-based integer array of shape (comb(n, k), k)."""
    return np.array(index_tuples(n, k), dtype=np.intp).reshape(comb(n, k), k) - 1


def _inversion_sign(indices) -> int:
    """Sign of the permutation sorting `indices`; 0 when an index repeats."""
    lst = list(indices)
    if len(set(lst)) != len(lst):
        return 0
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    return sign


# The Levi-Civita symbol eps_abc on three indices.
EPS3 = np.array([[[_inversion_sign((a, b, c)) for c in range(3)] for b in range(3)]
                 for a in range(3)], dtype=np.float64)


@lru_cache(maxsize=None)
def _wedge_tensor(n: int, ka: int, kb: int) -> np.ndarray:
    """W[out, A, B] = coefficient of e^out in e^A ^ e^B, for |A| = ka, |B| = kb."""
    pos = _tuple_position(n, ka + kb)
    W = np.zeros((comb(n, ka + kb), comb(n, ka), comb(n, kb)), dtype=np.complex128)
    for ia, A in enumerate(index_tuples(n, ka)):
        for ib, B in enumerate(index_tuples(n, kb)):
            s = _inversion_sign(A + B)
            if s:
                W[pos[tuple(sorted(A + B))], ia, ib] = s
    return W


def compound(M, k: int) -> np.ndarray:
    """The k-th compound: C[I, J] = det M[I, J] over increasing row and column tuples.

    For a square M acting on 1-form coefficient vectors this is the matrix of
    its multiplicative action on degree-k forms; for an (n, k) matrix of
    stacked vectors it is the single column of their minors.  Leading axes
    of M are a stack.
    """
    M = np.asarray(M)
    rows = _index_array(M.shape[-2], k)
    cols = _index_array(M.shape[-1], k)
    return np.linalg.det(M[..., rows[:, None, :, None], cols[None, :, None, :]])


def substitution(beta, p: int, k: int) -> np.ndarray:
    """Matrix of e^J -> sum_s (-1)^s beta(e^{j_s}) ^ e^{J minus j_s} on degree k.

    `beta` has shape (comb(n, p), n); column i holds the coefficients of the
    degree-p form beta(e^i).  Leading axes of beta stack.  The image has
    degree k - 1 + p:

      p = 0, beta = v as a row      interior product with the vector v;
      p = 1, beta = L               derivation action of the 1-form map L;
      p = 2, beta(e^i) = d e^i      the Maurer-Cartan differential.
    """
    beta = np.asarray(beta)
    n = beta.shape[-1]
    if k == 0:
        return np.zeros(beta.shape[:-2] + (comb(n, p - 1), 1), dtype=beta.dtype)
    # e^i ^ . is W1[:, i, :]; in the orthonormal monomial basis its transpose
    # is the interior product with e_i
    W1 = _wedge_tensor(n, 1, k - 1)
    inner = np.tensordot(beta, W1, axes=(-1, 1))  # [..., a, out_k, rest]
    out = np.tensordot(inner, _wedge_tensor(n, p, k - 1), axes=([-3, -1], [1, 2]))
    return np.swapaxes(out, -2, -1)


@dataclass(frozen=True)
class Form:
    """A complex exterior form of fixed degree over an n-dimensional coframe."""

    dimension: int
    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        n, k = self.dimension, self.degree
        if not (0 <= k <= n <= 7):
            raise ValueError(f"degree {k} out of range for dimension {n}")
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (comb(n, k),):
            raise ValueError(
                f"expected {comb(n, k)} coefficients for degree {k} in dimension {n}, "
                f"got shape {c.shape}"
            )
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    # -- algebra -------------------------------------------------------------

    def _check_compatible(self, other: "Form"):
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        if self.degree != other.degree:
            raise ValueError("degree mismatch in addition")

    def __add__(self, other: "Form") -> "Form":
        self._check_compatible(other)
        return Form(self.dimension, self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other: "Form") -> "Form":
        self._check_compatible(other)
        return Form(self.dimension, self.degree, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "Form":
        return Form(self.dimension, self.degree, self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def conjugate(self) -> "Form":
        return Form(self.dimension, self.degree, np.conj(self.coeffs))

    def real(self) -> "Form":
        return Form(self.dimension, self.degree, self.coeffs.real.astype(np.complex128))

    def imag(self) -> "Form":
        return Form(self.dimension, self.degree, self.coeffs.imag.astype(np.complex128))

    def norm(self) -> float:
        """Max-abs coefficient norm; the comparison norm used everywhere."""
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    def is_real(self) -> bool:
        return within(float(np.max(np.abs(self.coeffs.imag))), "real", max(1.0, self.norm()))

    def evaluate(self, vectors) -> complex:
        """Evaluate on degree-many frame-coordinate vectors (determinant convention)."""
        k = self.degree
        if len(vectors) != k:
            raise ValueError(f"need {k} vectors, got {len(vectors)}")
        if k == 0:
            return complex(self.coeffs[0])
        V = np.column_stack([np.asarray(v, dtype=np.complex128) for v in vectors])
        return complex(self.coeffs @ compound(V, k)[:, 0])


def basis_form(n: int, indices: tuple[int, ...]) -> Form:
    """The basis monomial e^{i1...ik} (indices strictly increasing, 1-based)."""
    k = len(indices)
    c = np.zeros(comb(n, k), dtype=np.complex128)
    c[_tuple_position(n, k)[tuple(indices)]] = 1.0
    return Form(n, k, c)


def form_from_one_coeffs(n: int, vector) -> Form:
    """A 1-form from its coefficient vector (alpha = sum_i v_i e^i)."""
    return Form(n, 1, np.asarray(vector, dtype=np.complex128))


def wedge(a: Form, b: Form) -> Form:
    """Exterior product under the determinant evaluation convention."""
    if a.dimension != b.dimension:
        raise ValueError("dimension mismatch")
    n = a.dimension
    k = a.degree + b.degree
    if k > n:
        raise ValueError(f"degree overflow: {a.degree}+{b.degree} > {n}")
    return Form(n, k, wedge_coeffs(a.coeffs, b.coeffs, n, a.degree, b.degree))


def wedge_coeffs(a, b, n: int, ka: int, kb: int) -> np.ndarray:
    """Coefficients of a ^ b from coefficient vectors of degrees ka and kb; leading axes stack."""
    return matvec(matvec(_wedge_tensor(n, ka, kb), b[..., None, :]), a)


def matvec(A, x) -> np.ndarray:
    """The products A x over the last axes; leading axes of A and x broadcast."""
    return (A @ x[..., None])[..., 0]


def contract(v, a: Form) -> Form:
    """Interior product: (iota_v a)(X2,...,Xk) = a(v, X2,...,Xk)."""
    if a.degree == 0:
        raise ValueError("cannot contract a degree-0 form")
    row = np.asarray(v, dtype=np.complex128)[None, :]
    return Form(a.dimension, a.degree - 1, substitution(row, 0, a.degree) @ a.coeffs)


def two_form_matrices(coeffs, n: int) -> np.ndarray:
    """The antisymmetric matrices A[i, j] = a(e_i, e_j) of 2-forms a from their
    coefficient vectors; leading axes stack."""
    coeffs = np.asarray(coeffs)
    rows, cols = _index_array(n, 2).T
    A = np.zeros(coeffs.shape[:-1] + (n, n), dtype=np.complex128)
    A[..., rows, cols] = coeffs
    return A - np.swapaxes(A, -2, -1)


def two_form_coeffs(A) -> np.ndarray:
    """Coefficients of the 2-forms with matrices A (antisymmetric); leading axes stack."""
    rows, cols = _index_array(np.shape(A)[-1], 2).T
    return np.asarray(A)[..., rows, cols]


def definite_sign(eigs) -> np.ndarray:
    """The one definiteness gate: +1 or -1 where ascending eigenvalues (leading axes stack)
    are definite of that sign, else 0.  Positive is lambda_min > `definite` * lambda_max,
    which NaN fails; negative is the same for -eigs."""
    lo, hi, tol = eigs[..., 0], eigs[..., -1], TOLERANCES["definite"]
    return np.where(lo > tol * hi, 1, np.where(hi < tol * lo, -1, 0))


@dataclass(frozen=True)
class Metric:
    """Symmetric positive-definite metric in coframe indices, with orientation: the one gate
    from a bilinear form, symmetric to the `symmetric` tolerance, to its symmetric part,
    positive by `definite_sign`."""

    matrix: np.ndarray
    orientation: int = 1

    def __post_init__(self):
        g = np.asarray(self.matrix, dtype=np.float64)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("metric must be a square matrix")
        defect = np.max(np.abs(g - g.T))
        if not within(defect, "symmetric", max(1.0, np.max(np.abs(g)))):
            raise ValueError(f"metric must be symmetric: asymmetric by {defect:g}")
        g = 0.5 * (g + g.T)
        eigs = np.linalg.eigvalsh(g)
        if definite_sign(eigs) != 1:
            raise ValueError(f"metric not positive definite: eigenvalues {eigs[0]:g} to "
                             f"{eigs[-1]:g} fail the definite gate")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        g.flags.writeable = False
        object.__setattr__(self, "matrix", g)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.matrix)


def hodge_star(g: Metric, a: Form) -> Form:
    """Hodge dual: a ^ *b = <a, b>_g Vol_g for all a of the degree of b."""
    n, k = a.dimension, a.degree
    if g.dimension != n:
        raise ValueError("metric dimension mismatch")
    P = _wedge_tensor(n, k, n - k)[0]  # coefficient of e^{1..n} in e^I ^ e^K
    G = compound(g.inverse(), k)  # the Gram matrix <e^I, e^J> of degree-k monomials
    vol = g.orientation * np.sqrt(np.linalg.det(g.matrix))
    # P is a signed permutation matrix, so its inverse is its transpose.
    S = P.T @ G * vol
    return Form(n, n - k, S @ a.coeffs)

