"""Exact scalar arithmetic: integers, rationals, and monomials in t.

All computation in this package is exact. Integers are Python ``int`` (which
is already arbitrary-precision sign-magnitude), rationals are
``fractions.Fraction`` (always stored reduced with positive denominator), and
the single polynomial generator ``t`` only ever appears through monomials,
because every class in scope restricts to ``a * t^d`` at each fixed point.
Floating point is forbidden everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ZeroDenominatorError


def rational(num: int, den: int = 1) -> Fraction:
    """Return num/den in canonical reduced form.

    Raises ZeroDenominatorError for den = 0 instead of ZeroDivisionError so
    callers can treat it uniformly as malformed input.
    """
    if den == 0:
        raise ZeroDenominatorError(f"zero denominator in {num}/{den}")
    return Fraction(num, den)


@dataclass(frozen=True)
class TMonomial:
    """A monomial ``coeff * t^degree`` in the polynomial ring over Q.

    The zero monomial is stored with degree 0 so equality is canonical.
    """

    coeff: Fraction
    degree: int

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError(f"negative degree {self.degree}")
        object.__setattr__(self, "coeff", Fraction(self.coeff))
        if self.coeff == 0 and self.degree != 0:
            object.__setattr__(self, "degree", 0)

    def __mul__(self, other: TMonomial) -> TMonomial:
        return TMonomial(self.coeff * other.coeff, self.degree + other.degree)

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    def __str__(self) -> str:
        if self.degree == 0:
            return str(self.coeff)
        power = "t" if self.degree == 1 else f"t^{self.degree}"
        return f"{self.coeff}*{power}"


def mono(coeff: int | Fraction, degree: int = 0) -> TMonomial:
    """Convenience constructor accepting plain integers."""
    return TMonomial(Fraction(coeff), degree)


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
