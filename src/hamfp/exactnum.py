"""Exact integer arithmetic: elementary symmetric polynomials.

All computation in this package is exact. Integers are Python ``int`` (which
is already arbitrary-precision sign-magnitude) and rationals are
``fractions.Fraction``. The single polynomial generator ``t`` needs no type
of its own: every class in scope restricts to ``a * t^d`` at each fixed
point, so callers keep the rational ``a`` and track the degree ``d``
alongside it. Floating point is forbidden everywhere.
"""

from __future__ import annotations

from typing import Sequence


def elementary_symmetric(values: Sequence[int]) -> list[int]:
    """All elementary symmetric polynomials of the values.

    Returns [e_0, e_1, ..., e_len] computed by expanding prod(1 + v*x); exact
    integer arithmetic throughout.
    """
    coeffs = [1]
    for v in values:
        coeffs.append(0)
        for k in range(len(coeffs) - 1, 0, -1):
            coeffs[k] += coeffs[k - 1] * v
    return coeffs
