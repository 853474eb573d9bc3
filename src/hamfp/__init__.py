"""Exact arithmetic for Hamiltonian circle actions with n+2 isolated fixed
points on compact symplectic 2n-manifolds.

The package models fixed-point data (moment values and isotropy weights),
validates the arithmetic constraints such data must satisfy, computes
equivariant cohomology via fixed-point localization (basis restrictions,
Chern classes and numbers, intersection pairing), realizes the integral
cohomology ring of the oriented 2-plane Grassmannian, and classifies the
weight data consistent with a given moment-value profile by exhaustive
search. All arithmetic is exact rational; floating point is never used.
"""

from .basis import BasisRestrictions, Expansion, build_basis, express_in_basis
from .errors import (
    DataError,
    DegenerateGammaError,
    ExpansionError,
    InconsistentProfileError,
    IntegralityError,
    InvalidGeneratorError,
    NotAManifoldError,
    SearchTooLargeError,
)
from .exactnum import elementary_symmetric
from .fpdata import (
    CheckResult,
    FixedPoint,
    FixedPointData,
    MomentProfile,
    PointInvariants,
    ValidationReport,
    make_standard_g2,
    morse_pattern,
    point_invariants,
    standard_weights,
    validate,
)
from .grassring import (
    RingElement,
    basis_images,
    betti,
    ordinary_chern,
    ring_integral,
    ring_labels,
    ring_make,
    ring_mul,
    x_power,
)
from .localize import (
    EquivClass,
    chern_number,
    chern_restriction,
    integrate,
    localization_consistent,
    pairing_matrix,
    symplectic_class,
)
from .solver import (
    ClassificationVerdict,
    check_symmetry,
    classify,
    enumerate_candidates,
    predicted_products,
)

__all__ = [
    "BasisRestrictions",
    "CheckResult",
    "ClassificationVerdict",
    "DataError",
    "DegenerateGammaError",
    "EquivClass",
    "Expansion",
    "ExpansionError",
    "FixedPoint",
    "FixedPointData",
    "InconsistentProfileError",
    "IntegralityError",
    "InvalidGeneratorError",
    "MomentProfile",
    "NotAManifoldError",
    "PointInvariants",
    "RingElement",
    "SearchTooLargeError",
    "ValidationReport",
    "basis_images",
    "betti",
    "build_basis",
    "check_symmetry",
    "chern_number",
    "chern_restriction",
    "classify",
    "elementary_symmetric",
    "enumerate_candidates",
    "express_in_basis",
    "integrate",
    "localization_consistent",
    "make_standard_g2",
    "morse_pattern",
    "ordinary_chern",
    "pairing_matrix",
    "point_invariants",
    "predicted_products",
    "ring_integral",
    "ring_labels",
    "ring_make",
    "ring_mul",
    "standard_weights",
    "symplectic_class",
    "validate",
    "x_power",
]
