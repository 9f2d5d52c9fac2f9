"""The Riemannian cone as a 7-dimensional model of homogeneous forms and its G2 geometry.

A cone form of weight w is t^w alpha + t^{w-1} dt ^ beta, with alpha and beta
invariant forms on the 6-dimensional base of degrees k and k - 1: it scales
by c^w under the dilation t -> c t.  Every form `fernandez_gray_check` builds is
of this kind (rho has weight 3, *rho weight 4), and the cone differential and the
Hodge star of the cone metric t^2 g + dt^2 keep the pair homogeneous:

    d (w, alpha, beta) = (w, d alpha, w alpha - d beta)
    * (w, alpha, beta) = (w + 7 - 2k, *6 beta, (-1)^{6-k} *6 alpha)

The cone checks take unit-lambda data, rescaled once by `normalize_to_unit_lambda`,
and read the oriented base metric from its `HermitianForm`.

Stability of a 3-form phi on a 7-dimensional space is decided through the
bilinear form B(x, y) e^{1..7} = (iota_x phi) ^ (iota_y phi) ^ phi: definite B,
by `multilinear.definite_sign`, the gate every metric passes, means the stabilizer
is the 14-dimensional compact group and the form induces the metric
B / (det B)^{1/9} after orientation normalization.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .multilinear import (Form, Metric, _wedge_tensor, basis_form, compound, definite_sign,
                          hodge_star, wedge)
from .frame_manifold import CoframeAlgebra, d_invariant
from .conventions import TOLERANCES, within
from .nk_su3 import SU3Structure

__all__ = [
    "ConeForm",
    "FernandezGrayReport",
    "MetricRoundtripReport",
    "Stable3FormReport",
    "build_cone_3form",
    "d_cone",
    "fernandez_gray_check",
    "hodge_cone",
    "metric_roundtrip",
    "normalize_to_unit_lambda",
    "stability_check",
]


class ConeForm(NamedTuple):
    """t^weight alpha + t^(weight-1) dt ^ beta over a 6-dimensional base."""

    weight: int
    alpha: Form   # degree k
    beta: Form    # degree k - 1

    @property
    def degree(self) -> int:
        if self.beta.degree != self.alpha.degree - 1:
            raise ValueError(f"beta has base degree {self.beta.degree}, "
                             f"expected {self.alpha.degree - 1}")
        return self.alpha.degree

    def __sub__(self, other: "ConeForm") -> "ConeForm":
        if self.weight != other.weight:
            raise ValueError("weight mismatch")
        return ConeForm(self.weight, self.alpha - other.alpha, self.beta - other.beta)

    def norm(self) -> float:
        return max(self.alpha.norm(), self.beta.norm())

    def at_t(self, t: float) -> Form:
        """Evaluate on the 7-dimensional tangent space at parameter t (e^7 = dt)."""
        dt_beta = wedge(basis_form(7, (7,)), _embed(self.beta))
        return (t ** (self.weight - 1)) * dt_beta + (t ** self.weight) * _embed(self.alpha)


def _embed(f: Form) -> Form:
    """A base form as a 7-dimensional form over the indices 1..6."""
    return Form(7, f.degree, compound(np.eye(7, 6), f.degree) @ f.coeffs)


def d_cone(alg: CoframeAlgebra, cf: ConeForm) -> ConeForm:
    w = cf.weight
    return ConeForm(w, d_invariant(alg, cf.alpha), w * cf.alpha - d_invariant(alg, cf.beta))


def hodge_cone(g6: Metric, cf: ConeForm) -> ConeForm:
    k = cf.degree
    return ConeForm(cf.weight + 7 - 2 * k, hodge_star(g6, cf.beta),
                    float((-1) ** (6 - k)) * hodge_star(g6, cf.alpha))


def normalize_to_unit_lambda(s: SU3Structure) -> SU3Structure:
    """Rescale the base data so the structure constant becomes 1.

    omega -> lam^2 omega, Omega -> lam^3 Omega leaves |Omega| = 1 and turns
    d omega = 3 lam Re Omega into d omega = 3 Re Omega.  The gated omega scales
    without a second gate (`HermitianForm.scaled`).
    """
    lam = s.lam
    if lam <= 0:
        raise ValueError("normalization needs a strictly positive constant")
    return SU3Structure(s.form.scaled(lam ** 2), (lam ** 3) * s.Omega, 1.0)


def _check_unit_lambda(s: SU3Structure) -> None:
    if s.lam != 1.0:
        raise ValueError(f"the cone checks take unit-lambda data, got lambda = {s.lam:g}")


def build_cone_3form(omega: Form, alg: CoframeAlgebra) -> ConeForm:
    """rho = 3 t^2 omega ^ dt + t^3 d omega, of weight 3, with d omega computed on alg.

    The caller is responsible for passing the omega of data already normalized
    to unit lambda when the displayed duality identities are to hold on the nose.
    """
    return ConeForm(3, d_invariant(alg, omega), 3.0 * omega)


# ---------------------------------------------------------------------------
# Stability and the induced metric
# ---------------------------------------------------------------------------

class Stable3FormReport(NamedTuple):
    """B of a 3-form on a 7-dimensional space, signed by `definite_sign`, the gate of `Metric`."""

    stable: bool                # B is definite
    orientation_sign: int       # the `definite_sign` of B; 0 when B is not definite
    metric: np.ndarray | None   # g_phi = B'/(det B')^{1/9}, None if not stable
    stabilizer_dimension: int   # nullity of the gl(7) action on phi
    symmetry_defect: float


def stability_check(phi: Form) -> Stable3FormReport:
    if phi.dimension != 7 or phi.degree != 3:
        raise ValueError("expected a 3-form on a 7-dimensional space")
    iota = _contractions(phi)
    # B[i, j] is the e^{1..7} coefficient of (iota_i phi) ^ (iota_j phi) ^ phi
    K = np.einsum("oab,o->ab", _wedge_tensor(7, 2, 2), _wedge_tensor(7, 4, 3)[0] @ phi.coeffs)
    Bc = iota @ K @ iota.T
    Bc = 0.5 * (Bc + Bc.T)
    B, defect = Bc.real, float(np.max(np.abs(Bc.imag)))
    sign = int(definite_sign(np.linalg.eigvalsh(B)))
    metric = sign * B / (np.linalg.det(sign * B) ** (1.0 / 9.0)) if sign else None
    return Stable3FormReport(sign != 0, sign, metric, 49 - _gl7_action_rank(phi), defect)


def _contractions(phi: Form) -> np.ndarray:
    """Rows iota_{e_k} phi of a 3-form: e^k ^ . transposed, in the orthonormal monomial basis."""
    return np.einsum("oka,o->ka", _wedge_tensor(7, 1, 2), phi.coeffs)


def _gl7_action_rank(phi: Form) -> int:
    """Rank of a in gl(7) -> (derivation action of a on phi), the span of the
    49 forms e^j ^ iota_{e_k} phi of a 3-form."""
    M = np.einsum("oja,ka->ojk", _wedge_tensor(7, 1, 2), _contractions(phi)).reshape(35, 49)
    M = np.vstack([M.real, M.imag])
    return int(np.linalg.matrix_rank(M, tol=TOLERANCES["rank"]))


# ---------------------------------------------------------------------------
# Fernandez-Gray and the metric roundtrip
# ---------------------------------------------------------------------------

class FernandezGrayReport(NamedTuple):
    d_rho_residual: float
    dstar_rho_residual: float
    star_formula_residual: float   # termwise match of *rho against the display

    @property
    def closed(self) -> bool:
        return within(self.d_rho_residual, "cone")

    @property
    def coclosed(self) -> bool:
        return within(self.dstar_rho_residual, "cone")


def fernandez_gray_check(alg: CoframeAlgebra, s: SU3Structure) -> FernandezGrayReport:
    """Closedness and co-closedness of the cone 3-form for unit-lambda data s.

    The explicit dual display is checked termwise with its own defining
    relation for the rotated derivative, I(d omega) := Im Omega / lambda.
    (The plain slot action of J on d omega differs from that object by the
    factor 3 lambda^2.)
    """
    _check_unit_lambda(s)
    rho = build_cone_3form(s.form.omega, alg)
    drho = d_cone(alg, rho)
    star_rho = hodge_cone(s.form.metric, rho)

    # display: *rho = (3/2) t^4 omega^2 - 3 t^3 dt ^ I(d omega), I(d omega) = Im Omega
    w2 = wedge(s.form.omega, s.form.omega)
    i_domega = s.Omega.imag()
    expect = ConeForm(4, 1.5 * w2, -3.0 * i_domega)
    star_res = (star_rho - expect).norm() / max(1.0, star_rho.norm())

    dstar = d_cone(alg, star_rho)
    scale = max(1.0, rho.norm())
    return FernandezGrayReport(
        d_rho_residual=drho.norm() / scale,
        dstar_rho_residual=dstar.norm() / max(1.0, star_rho.norm()),
        star_formula_residual=star_res,
    )


class MetricRoundtripReport(NamedTuple):
    stable: bool
    ratio: float | None           # scalar relating g_phi to the cone metric at t = 1; None if unstable
    ratio_spread: float | None    # max componentwise deviation, relative; None if unstable
    stabilizer_dimension: int


def metric_roundtrip(alg: CoframeAlgebra, s: SU3Structure) -> MetricRoundtripReport:
    """Extract the metric from the cone 3-form at t = 1 of unit-lambda data s and compare shapes.

    The contract for solution data: the extracted metric is a constant
    positive multiple of t^2 g + dt^2 across all components; the constant is
    a fixture of the normalization conventions, identical for the planted
    flat model and for solved structures.
    """
    _check_unit_lambda(s)
    rep = stability_check(build_cone_3form(s.form.omega, alg).at_t(1.0))
    if not rep.stable:
        return MetricRoundtripReport(False, None, None, rep.stabilizer_dimension)
    gc = np.zeros((7, 7))  # the cone metric t^2 g + dt^2 at t = 1
    gc[:6, :6] = s.form.metric.matrix
    gc[6, 6] = 1.0
    r = float(np.sum(rep.metric * gc) / np.sum(gc * gc))
    spread = float(np.max(np.abs(rep.metric - r * gc)) / (abs(r) * np.max(np.abs(gc))))
    return MetricRoundtripReport(True, r, spread, rep.stabilizer_dimension)
