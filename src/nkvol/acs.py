"""Almost complex structures on 6-dimensional coframes and bidegree calculus.

Conventions (fixed once, used everywhere):

* The stored matrix acts on the coframe: row i holds the coefficients of
  J e^i in the basis e^j.  Read column-wise the same matrix is the tangent
  action J e_j = sum_i A[i, j] e_i, and on 1-form coefficient vectors the
  pullback J* acts as A^T.
* Lambda^{1,0} is the +i eigenspace of J* (projector P^{1,0} = (Id - i J*)/2).
  The sign choice propagates into the sign of the structure constant of the
  solved SU(3) data; only `type_projectors` and `j_from_basis` write it out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .multilinear import (EPS3, Form, _index_array, compound, form_from_one_coeffs,
                          substitution, two_form_matrices)
from .conventions import within

__all__ = [
    "EPS3",
    "AlmostComplexStructure",
    "ComplexFrame",
    "acs_gates",
    "bidegrees",
    "default_frame_coords",
    "is_type_11",
    "j_from_basis",
    "j_squared_residual",
    "project_to_acs",
    "projector_from_derivation",
    "split_30",
    "theta_top_coeffs",
    "type_projectors",
]


@dataclass(frozen=True)
class AlmostComplexStructure:
    """A real endomorphism with J^2 = -Id acting on a 6-dimensional coframe."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (6, 6):
            raise ValueError(f"J must be a 6x6 matrix, got shape {m.shape}")
        finite, valid = acs_gates(m)
        if not finite:
            raise ValueError("J has non-finite entries")
        if not valid:
            raise ValueError("J^2 != -Id")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def jstar(self) -> np.ndarray:
        """J* on 1-form coefficient vectors."""
        return self.matrix.T

    def derivation_matrix(self, k: int) -> np.ndarray:
        """Extension of J* to degree-k forms as a derivation (charge operator)."""
        return substitution(self.jstar, 1, k)

    def bidegree_projector(self, p: int, q: int) -> np.ndarray:
        """Matrix of Pi^{p,q} on degree-(p+q) coefficient vectors."""
        return projector_from_derivation(self.derivation_matrix(p + q), self.dimension, p, q)

    def frame(self) -> "ComplexFrame":
        """Deterministic (1,0) coframe/frame pair (`default_frame_coords`)."""
        return ComplexFrame(self, *default_frame_coords(self.matrix))


def type_projectors(Jm) -> tuple[np.ndarray, np.ndarray]:
    """P^{1,0} = (Id - i J*)/2 and P^{0,1} = (Id + i J*)/2, J* = Jm^T; leading axes stack."""
    eye, i_jstar = np.eye(Jm.shape[-1]), 1j * np.swapaxes(Jm, -2, -1)
    return 0.5 * (eye - i_jstar), 0.5 * (eye + i_jstar)


def j_from_basis(B) -> np.ndarray:
    """The real J = B diag(i, .., i, -i, .., -i) B^{-1}, +i on the first half of the columns
    of B (a basis of T^{1,0}) and -i on the second (its conjugate); leading axes stack."""
    h = B.shape[-1] // 2
    return (B @ np.diag([1j] * h + [-1j] * h) @ np.linalg.inv(B)).real


def j_squared_residual(m: np.ndarray):
    """max|J^2 + Id| and the scale max(1, |J|_2^2) against which it is judged.

    Leading axes of m are a stack; the entries must be finite.
    """
    m = np.asarray(m, dtype=np.float64)
    res = np.max(np.abs(m @ m + np.eye(m.shape[-1])), axis=(-2, -1))
    return res, np.maximum(1.0, np.linalg.norm(m, 2, axis=(-2, -1)) ** 2)


def acs_gates(m: np.ndarray):
    """The constructor's gates per matrix of a stack: (finite entries, finite and J^2 = -Id)."""
    m = np.asarray(m, dtype=np.float64)
    finite = np.all(np.isfinite(m), axis=(-2, -1))
    res, scale = j_squared_residual(np.where(finite[..., None, None], m, 0.0))
    return finite, finite & within(res, "j_squared", scale)


def projector_from_derivation(D: np.ndarray, n: int, p: int, q: int) -> np.ndarray:
    """Pi^{p,q} as the polynomial in the charge operator D that kills every other
    eigenvalue i (p' - q'); leading axes of D stack."""
    eye = np.eye(D.shape[-1], dtype=np.complex128)
    proj = eye
    target = 1j * (p - q)
    for pp, qq in bidegrees(n, p + q):
        if (pp, qq) == (p, q):
            continue
        ev = 1j * (pp - qq)
        proj = proj @ (D - ev * eye) / (target - ev)
    return proj


def bidegrees(n: int, k: int) -> list[tuple[int, int]]:
    """Admissible (p, q) with p + q = k on complex dimension n/2."""
    h = n // 2
    return [(p, k - p) for p in range(max(0, k - h), min(h, k) + 1)]


@dataclass(frozen=True)
class ComplexFrame:
    """A basis theta^1..theta^3 of (1,0)-forms with dual (1,0) frame vectors.

    theta[a](v[b]) = delta_ab, conjugates give the (0,1) side.  psi and N* are
    covariant under any GL(3,C) change of frame; the conformal candidate of
    `hermitian_torsion` is invariant only under unitary ones.

    Frame coordinates are taken on the six vectors F = [v, conj v] with the
    dual coframe Theta = [theta; conj theta]: `components` reads a 1- or
    2-form there (a(F_i), a(F_i, F_j)), and the 2-form with a given 6x6
    coordinate matrix X is Theta^T X Theta.  The basis of
    Lambda^{2,0} dual to theta is

        tcheck^b = 1/2 eps_bcd theta^c ^ theta^d,
        (tcheck^1 = theta^23, tcheck^2 = -theta^13, tcheck^3 = theta^12)

    so theta^a ^ tcheck^b = delta_ab theta^123, and the (v, v) block of the
    coordinate matrix of tcheck^b is EPS3[b].
    """

    J: AlmostComplexStructure
    theta_coeffs: np.ndarray   # (3, n) rows: coefficients of theta^a
    v_coords: np.ndarray       # (n, 3) columns: the dual (1,0) vectors

    @property
    def dimension(self) -> int:
        return self.theta_coeffs.shape[1]

    def theta_bar(self, a: int) -> Form:
        return form_from_one_coeffs(self.dimension, np.conj(self.theta_coeffs[a]))

    def v(self, a: int) -> np.ndarray:
        return self.v_coords[:, a]

    @cached_property
    def vectors(self) -> np.ndarray:
        """F = [v, conj v] as the columns of a 6x6 matrix."""
        return np.hstack([self.v_coords, np.conj(self.v_coords)])

    @cached_property
    def coframe(self) -> np.ndarray:
        """Theta = [theta; conj theta] as the rows of a 6x6 matrix, the inverse of F."""
        return np.vstack([self.theta_coeffs, np.conj(self.theta_coeffs)])

    @cached_property
    def volume(self) -> float:
        """i det Theta, the coefficient of i theta^123 ^ conj theta^123 on e^{1..6}: real, and
        positive exactly when J orients the coframe like e^{1..6}."""
        return float((1j * np.linalg.det(self.coframe)).real)

    def components(self, a: Form) -> np.ndarray:
        """a(F_i) of a 1-form, or the matrix a(F_i, F_j) = F^T A F of a 2-form."""
        F = self.vectors
        if a.degree == 1:
            return a.coeffs @ F
        return F.T @ two_form_matrices(a.coeffs, self.dimension) @ F

    def theta_top(self) -> Form:
        """theta^1 ^ theta^2 ^ theta^3."""
        return Form(self.dimension, 3, theta_top_coeffs(self.theta_coeffs))


@lru_cache(maxsize=None)
def _triple_columns(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns (i, j, k) of each increasing triple of 0..n-1, rotated once (j, k, i) and
    twice (k, i, j): gathered from rows x, y, z, they give x . (y x z) term by term."""
    idx = _index_array(n, 3)
    return idx, idx[:, [1, 2, 0]], idx[:, [2, 0, 1]]


def theta_top_coeffs(theta) -> np.ndarray:
    """Coefficients of theta^1 ^ theta^2 ^ theta^3 from the rows theta: the minors
    det theta[:, I] as triple products x . (y x z), several times faster on stacks
    than factoring each minor in `compound`.  Leading axes stack."""
    idx, r1, r2 = _triple_columns(theta.shape[-1])
    x, y, z = theta[..., 0, :], theta[..., 1, :], theta[..., 2, :]
    return np.sum(x[..., idx] * (y[..., r1] * z[..., r2] - y[..., r2] * z[..., r1]), axis=-1)


def split_30(phi, theta, V) -> tuple[np.ndarray, np.ndarray]:
    """The (3,0) coefficient c = phi(v_1, v_2, v_3) of 3-form coefficients phi, and the (2,1)+(1,2)
    part phi - c theta^123 - phi(conj v_1, conj v_2, conj v_3) conj theta^123, from (1,0) frames
    (theta rows, V columns) through the 3x3 minors of V.  Leading axes stack."""
    minors = theta_top_coeffs(np.swapaxes(V, -2, -1))  # v_1 ^ v_2 ^ v_3 as coefficients
    top = theta_top_coeffs(theta)
    c, c03 = np.sum(phi * minors, axis=-1), np.sum(phi * np.conj(minors), axis=-1)
    return c, phi - c[..., None] * top - c03[..., None] * np.conj(top)


def _dual_vectors(rows) -> np.ndarray:
    """(1,0) vectors dual to the (1,0)-form rows: the first three columns of the
    inverse of the coframe [theta; conj theta]; leading axes stack."""
    return np.linalg.inv(np.concatenate([rows, np.conj(rows)], axis=-2))[..., :3]


def default_frame_coords(Jm) -> tuple[np.ndarray, np.ndarray]:
    """theta rows and dual vectors of the deterministic frame of `AlmostComplexStructure.frame`.

    The rows are an orthonormal basis of Lambda^{1,0}; leading axes of Jm stack.
    """
    p10 = type_projectors(Jm)[0]
    # the leading left singular vectors of a rank-3 projector span its range
    rows = np.swapaxes(np.linalg.svd(p10, full_matrices=False)[0][..., :3], -2, -1)
    return rows, _dual_vectors(rows)


def project_to_acs(K: np.ndarray) -> np.ndarray:
    """Nearest-in-spirit renormalization of K to an exact J^2 = -Id structure.

    Splits C^n by the eigenvalue sign of Im(eig(K)) and rebuilds the structure
    that is +i on the positive part.  Exact up to floating arithmetic.
    """
    K = np.asarray(K, dtype=np.float64)
    n = K.shape[0]
    w, V = np.linalg.eig(K)
    Vp = V[:, w.imag > 0]
    if Vp.shape[1] != n // 2:
        raise ValueError("matrix too far from an almost complex structure")
    return AlmostComplexStructure(j_from_basis(np.hstack([Vp, np.conj(Vp)]))).matrix


def is_type_11(J: AlmostComplexStructure, a: Form) -> bool:
    """The (1,1) test of a 2-form, real or complex: |Pi^{1,1} a - a| = |J* a - a| / 2 at the
    `pure_bidegree` tolerance, since J* acts on 2-forms through its compound, by +1 on (1,1)
    and by -1 on (2,0) + (0,2)."""
    defect = np.max(np.abs(compound(J.jstar, 2) @ a.coeffs - a.coeffs)) / 2.0
    return within(defect, "pure_bidegree", max(1.0, a.norm()))
