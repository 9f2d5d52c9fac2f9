"""The tables of convention constants and pass/fail tolerances shared across modules.

Every identification constant (route signs, duality factors, tensor/form
normalizations) is calibrated once -- on the flat model where possible,
otherwise on the su(2)+su(2) solution family -- frozen here, and asserted by
the test-suite.  Nothing below is re-derived ad hoc at call sites; an input
that would require a different constant is a build failure, not a tunable.

Every verdict is a residual compared against one entry of `TOLERANCES`,
through `within`, which fails on NaN and infinities, and which alone loads numpy.
"""

from __future__ import annotations

__all__ = [
    "CATALOG_NAMES",
    "CONSTANTS",
    "TOLERANCES",
    "HERMITIAN_30_NORM_COEF",
    "NABLA_OMEGA_TO_DOMEGA",
    "NIJ_D_ROUTE_SIGN",
    "PSI_SCALING_EXPONENT",
    "ZH_DUALITY_FACTOR",
    "KAPPA_CONV",
    "within",
]

# Relation between the two Nijenhuis routes:
#   (2,-1)-part-of-d route  =  NIJ_D_ROUTE_SIGN * bracket route.
# Fixed by the determinant wedge convention; verified on the su(2)+su(2)
# catalog structure and asserted on random (algebra, J) pairs.
NIJ_D_ROUTE_SIGN = -1.0

# |Omega|^2 = HERMITIAN_30_NORM_COEF * (Omega ^ conj Omega) / (omega^3 / 6);
# the i/8 makes the flat model Omega0 = dz1^dz2^dz3, omega0 = (i/2) sum dz^dzbar
# come out at exactly 1.
HERMITIAN_30_NORM_COEF = 1j / 8.0

# A totally antisymmetric nabla-omega, read as a 3-form through plain slot
# evaluation, equals d omega only after this factor (the torsion-free identity
# d omega(X,Y,Z) = sum over 3 cyclic slots).
NABLA_OMEGA_TO_DOMEGA = 3.0

# In an adapted frame Omega = theta^123 of a structure solving the shape
# equations, the bracket-route Nijenhuis map acts diagonally on conjugate
# coframe elements:  N*(conj theta^i) = ZH_DUALITY_FACTOR * lambda * tcheck^i,
# in the tcheck basis of Lambda^{2,0} defined in `acs.ComplexFrame`.
ZH_DUALITY_FACTOR = -1.0j

# Measured homogeneity of the volume density under N* -> c N* at fixed frame:
# Psi scales by |c|**PSI_SCALING_EXPONENT.  (|det|^2 of a 3x3 map.)
PSI_SCALING_EXPONENT = 6

# Single global ratio between the raw (2,2)-pairing density and the central
# finite-difference derivative of the volume density, with the deformation
# identified through the unit trilinear form *normalized so the Nijenhuis
# endomorphism is the identity* (one inverse ZH_DUALITY_FACTOR).  Calibrated
# on the su(2)+su(2) family (the flat family is degenerate: Psi vanishes
# identically there), cross-checked on structurally distinct algebras, and
# asserted at 1e-6 relative wherever the skew-torsion criterion holds.
KAPPA_CONV = 64.0


CATALOG_NAMES = ("torus6", "s3s3", "s3s3_perturbed")  # the models of frame_manifold.catalog


# The convention constants as a JSON-ready report section.
CONSTANTS = {
    "nij_d_route_sign": NIJ_D_ROUTE_SIGN,
    "hermitian_30_norm_coef": [HERMITIAN_30_NORM_COEF.real, HERMITIAN_30_NORM_COEF.imag],
    "nabla_omega_to_domega": NABLA_OMEGA_TO_DOMEGA,
    "zh_duality_factor": [ZH_DUALITY_FACTOR.real, ZH_DUALITY_FACTOR.imag],
    "psi_scaling_exponent": PSI_SCALING_EXPONENT,
    "kappa_conv": KAPPA_CONV,
}


# One entry per question a gate answers.  A residual passes when it is at most
# the entry times the scale named beside it; the gates marked ">" pass when a
# quantity exceeds the entry instead.
TOLERANCES = {
    "j_squared": 1e-10,             # max|J^2 + Id|, scale max(1, |J|_2^2)
    "jacobi": 1e-12,                # max_i |d d e^i|
    "symmetric": 1e-9,              # asymmetry of a metric or omega(., J.), scale max(1, max entry)
    "metric": 1e-9,                 # manifest metric - omega(., J.), scale max(1, max entry)
    "real": 1e-9,                   # imaginary part of a form or number, scale max(1, its size)
    "pure_bidegree": 1e-10,         # |Pi^{p,q} a - a|, scale max(1, |a|)
    "vanishes": 1e-12,              # a form or coefficient treated as zero
    "routes_agree": 1e-12,          # bracket route - d route of N*, scale max(1, max|N*|)
    "cartan": 1e-10,                # Cartan identity d^{2,-1} = wedge after Id (x) N*, relative
    "skew_torsion": 1e-10,          # non-skew part of rho = omega(N(.,.),.), scale max|rho|
    "nondegenerate": 1e-9,          # >: |det N*| against |N*|_2^3
    "definite": 1e-12,              # >: min eigenvalue of a definite form against the max
    "nullspace": 1e-9,              # zero singular values of the conformal system, scale the top one
    "unit_norm": 1e-9,              # ||Omega3|^2 - 1| of a manifest Omega3 against omega
    "shape": 1e-8,                  # (2,1)+(1,2) part of d omega, scale max(1, |d omega|)
    "verdict": 1e-8,                # structure equations, non-antisymmetric part of nabla omega
    "strict": 1e-8,                 # >: lambda and the strictness of nabla omega
    "nabla_identification": 1e-7,   # |3 Alt(nabla omega) - d omega|, scale max(1, |d omega|)
    "cone": 1e-9,                   # d rho, d * rho, spread of the cone metric roundtrip, relative
    "cone_dual_formula": 1e-10,     # * rho against its explicit display, relative
    "rank": 1e-8,                   # zero singular values in the integer rank checks
    "complementary": 1e-10,         # >: |det| of the deformed graph basis
    "objective": 1e-12,             # squared criticality residual where the optimizer stops
}


def within(residual, name, scale=1.0):
    """residual <= TOLERANCES[name] * scale; False if residual or scale is not finite.

    On arrays the gate is taken elementwise and the answer is a boolean array.
    """
    import numpy as np
    tol = TOLERANCES[name]
    ok = np.isfinite(residual) & np.isfinite(scale) & (np.asarray(residual) <= tol * np.asarray(scale))
    return bool(ok) if np.ndim(ok) == 0 else ok
