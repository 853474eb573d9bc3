"""Exception types shared across the package.

``DataError`` and its subclasses mark malformed input (the CLI maps them to
exit code 2); the remaining classes mark arithmetic conditions detected while
computing with structurally well-formed data.
"""

from __future__ import annotations


class DataError(ValueError):
    """Structurally malformed input: bad JSON document, bad counts, zero weight."""


class InvalidGeneratorError(DataError):
    """The exponent list for the standard action is not admissible."""


class NotAManifoldError(ValueError):
    """A localization sum below the top degree is nonzero.

    The push-forward of an equivariant class of degree below the manifold
    dimension lands in positive degree of the base, so its rational value must
    vanish; a nonzero value proves the fixed-point data cannot come from a
    compact Hamiltonian circle manifold.
    """


class DegenerateGammaError(ValueError):
    """Two weight sums coincide within one half of the point list.

    The closed-form basis restrictions divide by differences of weight sums
    taken within each half, so the construction is undefined here.
    """


class InconsistentProfileError(ValueError):
    """The predicted weight products admit no data: a fractional product, or
    an n = 2 profile that is not symmetric about its middle pair.

    No integer weight multiset can realize a fractional product, and at
    n = 2 the products of the 4-dimensional case have a nonzero localization
    sum of 1 unless phi_0 + phi_3 = phi_1 + phi_2, so the moment-value
    profile admits no fixed-point data at all.
    """


class IntegralityError(ValueError):
    """A quantity that must be an integer came out fractional."""


class ExpansionError(RuntimeError):
    """The triangular system for a basis expansion is inconsistent.

    This cannot happen for restriction tuples of genuine equivariant classes;
    it flags an input tuple outside the span of the basis in that degree.
    """


class SearchTooLargeError(DataError):
    """The classifier's search would build more partial assignments for one
    half of its join, try a larger trial divisor on one moment gap, or visit
    more nodes of one factorization search than it allows, so the profile is
    refused before memory or time runs out."""
