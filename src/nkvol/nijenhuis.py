"""Nijenhuis tensor by two routes, the intrinsic volume form, and its density.

The tensor is computed either from frame brackets,

    N(X, Y) = P^{0,1} [P^{1,0} X, P^{1,0} Y],

dualized against a chosen (1,0) coframe, or as the (2,-1) component of the
exterior derivative on (0,1)-forms.  Both are written in the tcheck basis of
Lambda^{2,0}, whose convention is stated once, in `acs.ComplexFrame`.  The
two agree up to the frozen route sign in `conventions`.

The volume form is assembled by the canonical contraction of
det N* (x) conj(det N*): with M the matrix of N* in a frame theta and
Theta = theta^1 ^ theta^2 ^ theta^3,

    Vol = |det M|^2 * i Theta ^ conj(Theta),

which is frame-independent (a GL(3,C) frame change scales |det M|^2 by
1/|det S|^2 and i Theta ^ conj Theta by |det S|^2) and non-negative against
the orientation induced by the almost complex structure.  Its coefficient on
e^{1..6} is |det M|^2 times i det [theta; conj theta] (`ComplexFrame.volume`,
whose sign is J's orientation), so no wedge of 3-forms is built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .multilinear import Form
from .frame_manifold import CoframeAlgebra, d_invariant
from .acs import EPS3, AlmostComplexStructure, ComplexFrame, is_type_11, split_30, type_projectors
from .conventions import NIJ_D_ROUTE_SIGN, TOLERANCES

if TYPE_CHECKING:
    from .hermitian_torsion import HermitianForm

__all__ = [
    "NijenhuisTensor",
    "VolumeDensity",
    "cartan_compatibility",
    "nijenhuis_matrices",
    "nijenhuis_via_brackets",
    "nijenhuis_via_d",
    "rho_skew_coefficient",
    "volume_form",
]


class NijenhuisTensor(NamedTuple):
    """N*: Lambda^{0,1} -> Lambda^{2,0} in the stored (1,0) coframe.

    matrix[b, a] is the tcheck^b-coefficient of N*(conj theta^a), where the
    tcheck basis (`ComplexFrame`) is dual to theta under
    theta^a ^ tcheck^b = delta_ab Theta.
    """

    frame: ComplexFrame
    matrix: np.ndarray

    @property
    def nondegenerate(self) -> bool:
        m = self.matrix
        op = np.linalg.norm(m, 2)
        return bool(abs(np.linalg.det(m)) > TOLERANCES["nondegenerate"] * max(op, 1e-300) ** 3)


def bracket_vectors(alg: CoframeAlgebra, V: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Columns 1/2 eps_bcd [v_c, w_d] of the vectors V and W as columns: bilinear, and symmetric
    in (V, W) since the bracket and eps are both skew.  Leading axes broadcast."""
    # [v_c, w_d]^i = V[j, c] c^i_jk W[k, d]: the inner matmul over k, then the outer over j
    inner = alg.structure_constants @ W[..., None, :, :]
    brackets = np.swapaxes(V, -2, -1)[..., None, :, :] @ inner
    return brackets.reshape(brackets.shape[:-2] + (9,)) @ (0.5 * EPS3.reshape(3, 9).T)


def nijenhuis_matrices(alg: CoframeAlgebra, Jm: np.ndarray, theta: np.ndarray,
                       V: np.ndarray) -> np.ndarray:
    """The bracket-route matrix of N* for J matrices with frames (theta, V); leading axes stack."""
    # the vectors N^b = 1/2 eps_bcd P^{0,1}[v_c, v_d] give N(v_c, v_d) = eps_bcd N^b, and
    # N*(conj theta^a)(v_c, v_d) = conj(theta^a)(N(v_c, v_d)), so M[b, a] is the
    # conj(theta^a) coordinate of N^b
    q01 = np.swapaxes(type_projectors(Jm)[1], -2, -1)  # transposed: P^{0,1} on vectors
    return np.swapaxes(np.conj(theta) @ (q01 @ bracket_vectors(alg, V, V)), -2, -1)


def rho_skew_coefficient(A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """c with skew part c theta^123 of rho = omega(N(.,.),.) on T^{1,0}: c = -tr(A M^T)/3.

    A is the (v, conj v) block omega(v_a, conj v_b) of omega in frame
    coordinates (`ComplexFrame.components`), the matrix of its (1,1) part
    sum A[a, b] theta^a ^ conj theta^b, and M the N* matrix.  Then
    rho[a, b, c] = -eps_dab C[c, d] for C = A M^T: its scalar part -c I gives the skew part
    of rho, and its traceless part the non-skew residual.  Equivalently
    sum A[a, b] theta^a ^ N*(conj theta^b) = -3c theta^123, since theta^a ^ tcheck^d = delta_ad theta^123.  Leading axes stack.
    """
    return -np.sum(A * M, axis=(-2, -1)) / 3.0


def nijenhuis_via_brackets(alg: CoframeAlgebra, J: AlmostComplexStructure,
                           frame: ComplexFrame | None = None) -> NijenhuisTensor:
    """Frame-bracket route: dualize N(X,Y) = P^{0,1}[P^{1,0}X, P^{1,0}Y]."""
    fr = frame if frame is not None else J.frame()
    M = nijenhuis_matrices(alg, J.matrix, fr.theta_coeffs, fr.v_coords)
    return NijenhuisTensor(fr, M)


def nijenhuis_via_d(alg: CoframeAlgebra, J: AlmostComplexStructure,
                    frame: ComplexFrame | None = None) -> NijenhuisTensor:
    """(2,-1)-part-of-d route: N* = Pi^{2,0} d restricted to (0,1)-forms.

    The (2,0) part of a 2-form is its (v, v) block in frame coordinates.
    Returned in the bracket-route normalization (the frozen route sign is
    divided out), so both constructors are interchangeable downstream.
    """
    fr = frame if frame is not None else J.frame()
    blocks = np.array([fr.components(d_invariant(alg, fr.theta_bar(a)))[:3, :3]
                       for a in range(3)])
    M = 0.5 * np.einsum("bcd,acd->ba", EPS3, blocks)
    return NijenhuisTensor(fr, M / NIJ_D_ROUTE_SIGN)


class VolumeDensity(NamedTuple):
    """The density of the canonical volume 6-form against the J-orientation."""

    psi: float


def volume_form(nij: NijenhuisTensor) -> VolumeDensity:
    """Vol = |det M|^2 * i Theta ^ conj Theta, whose coefficient on e^{123456} is |det M|^2 times
    the frame's i det Theta (`ComplexFrame.volume`); Psi its density, >= 0."""
    return VolumeDensity(psi=float(abs(np.linalg.det(nij.matrix)) ** 2 * abs(nij.frame.volume)))


def cartan_compatibility(alg: CoframeAlgebra, nij: NijenhuisTensor,
                         omega: Form | HermitianForm) -> float:
    """Residual of d^{2,-1} = wedge after Id (x) N* on a (1,1)-form, for the tensor nij of J.

    The left side is the (3,0) part d omega(v_1, v_2, v_3) theta^123 of d omega
    (`split_30`); the right side applies N* to the (0,1) leg of omega and wedges
    the legs back together, which gives -3c theta^123 for c the `rho_skew_coefficient`.
    The contract is that the residual passes the `cartan` entry of `conventions.TOLERANCES`
    on every (1,1)-form, complex ones too: a `Form` is checked here (`is_type_11`), a gated
    `HermitianForm` is not, and its frame block is read in nij's frame.
    """
    fr = nij.frame
    if isinstance(omega, Form):
        if not is_type_11(fr.J, omega):
            raise ValueError("cartan_compatibility expects a (1,1)-form")
        A = fr.components(omega)[:3, 3:]
    else:
        A, omega = omega.read_in(fr).block, omega.omega
    top = fr.theta_top().norm()  # both sides are multiples of theta^123
    lhs = split_30(d_invariant(alg, omega).coeffs, fr.theta_coeffs, fr.v_coords)[0]
    rhs = -3.0 * rho_skew_coefficient(A, nij.matrix)
    return float(abs(lhs - rhs) * top / max(1.0, abs(lhs) * top, abs(rhs) * top))
