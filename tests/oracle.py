"""Products of equivariant classes one Fraction at a time, partitions listed
one by one, and Chern keys as tuples, for oracles that check the integer
engines against plain restriction tuples."""

from fractions import Fraction

from hamfp import EquivClass, elementary_symmetric


def multiply(a, b):
    """The product class: restrictions multiply point by point."""
    coeffs = tuple(x * y for x, y in zip(a.coeffs, b.coeffs, strict=True))
    return EquivClass(a.degree_half + b.degree_half, coeffs)


def power(cls, a):
    """The a-th power of a class, a >= 0."""
    return EquivClass(cls.degree_half * a, tuple(c**a for c in cls.coeffs))


def basis_rows(basis):
    """Each basis row as a class, its entries numerators / denominator."""
    return tuple(
        EquivClass(degree, tuple(Fraction(a, basis.denominator) for a in row))
        for degree, row in zip(basis.half_degrees, basis.numerators)
    )


def partitions(total, largest=None):
    """All partitions of total into parts 1..largest, each nonincreasing, in
    reverse lexicographic order."""
    if largest is None:
        largest = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def chern_key(option, scale):
    """e_1 .. e_{n-1} of an option's n weights, times scale: the entries the
    solver's join packs into one int."""
    return tuple(e * scale for e in elementary_symmetric(option)[1:-1])
