"""Exact integer arithmetic: integer coercion, elementary symmetric
polynomials, and the common denominator and the one division of every
localization sum (``shares``, ``exact_fraction``).

All computation in this package is exact. Integers are Python ``int`` (which
is already arbitrary-precision sign-magnitude), and so is every exact
quotient: ``exact_fraction`` returns an ``int`` when the division is exact
and a ``fractions.Fraction`` only when it is not, so a rational value is an
``int`` exactly when it is integral. Both types read the same through
``numerator``, ``denominator``, ``str`` and ``int``. The single polynomial
generator ``t`` needs no type of its own: every class in scope restricts to
``a * t^d`` at each fixed point, so callers keep the rational ``a`` and
track the degree ``d`` alongside it. Floating point is forbidden everywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import index
from typing import Any, Sequence

from .errors import DataError


def exact_int(value: Any, field: str) -> int:
    """The value as an int, through ``operator.index``: a float, Fraction or
    string raises DataError naming the field and the value, so it is never
    truncated or parsed."""
    try:
        return index(value)
    except TypeError:
        raise DataError(f"{field}: {value!r} is not an integer") from None


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


def shares(products: Sequence[int]) -> tuple[int, list[int]]:
    """L = lcm |p| of nonzero integers and each share L // p, signed like p:
    the sum of x_P / p_P is the sum of x_P * (L // p_P), over L."""
    common = lcm(*products)
    return common, [common // p for p in products]


def exact_fraction(num: int, den: int) -> int | Fraction:
    """num / den for den != 0: the int quotient when den divides num, zero
    included, and otherwise the reduced Fraction, which alone pays a gcd."""
    quotient, rest = divmod(num, den)
    return Fraction(num, den) if rest else quotient
