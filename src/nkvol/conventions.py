"""The single table of convention constants shared across modules.

Every identification constant (route signs, duality factors, tensor/form
normalizations) is calibrated once -- on the flat model where possible,
otherwise on the su(2)+su(2) solution family -- frozen here, and asserted by
the test-suite.  Nothing below is re-derived ad hoc at call sites; an input
that would require a different constant is a build failure, not a tunable.
"""

from __future__ import annotations

__all__ = [
    "CONSTANTS",
    "HERMITIAN_30_NORM_COEF",
    "NABLA_OMEGA_TO_DOMEGA",
    "NIJ_D_ROUTE_SIGN",
    "PSI_SCALING_EXPONENT",
    "ZH_DUALITY_FACTOR",
    "KAPPA_CONV",
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


def constants_table() -> dict:
    """The convention constants as a JSON-ready report section."""
    return {
        "nij_d_route_sign": NIJ_D_ROUTE_SIGN,
        "hermitian_30_norm_coef": [HERMITIAN_30_NORM_COEF.real, HERMITIAN_30_NORM_COEF.imag],
        "nabla_omega_to_domega": NABLA_OMEGA_TO_DOMEGA,
        "zh_duality_factor": [ZH_DUALITY_FACTOR.real, ZH_DUALITY_FACTOR.imag],
        "psi_scaling_exponent": PSI_SCALING_EXPONENT,
        "kappa_conv": KAPPA_CONV,
    }


CONSTANTS = constants_table()
