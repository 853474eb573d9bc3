"""Equivariant classes as restriction tuples, and exact localization.

A homogeneous equivariant class of degree 2d restricts at each isolated fixed
point to a rational multiple of t^d, so it is stored as one rational per
point together with the common half-degree d. Integration over the manifold
is the fixed-point localization sum: the restriction at each point divided by
the product of its weights, with the result a rational multiple of t^(d-n). For
d < n the sum must vanish exactly; a nonzero value is reported as
``NotAManifoldError`` since no compact Hamiltonian circle manifold can
produce it.

Monomials u^a * c_lambda in the symplectic class and the Chern classes are
integrated by one engine, ``localization_sums``, without restriction tuples;
``pairing_matrix`` sums products of basis rows the same way, in integers over
one common denominator; ``integrate`` remains the primitive for arbitrary
classes.

Everything is a pure function of immutable inputs; sums of exact rationals
are order-independent, so callers may parallelize freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import IntegralityError, NotAManifoldError
from .exactnum import elementary_symmetric
from .fpdata import FixedPointData, point_invariants


@dataclass(frozen=True)
class EquivClass:
    """Restrictions of one homogeneous class: coeffs[i] * t^degree_half at
    point i."""

    degree_half: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.degree_half < 0:
            raise ValueError(f"negative degree {self.degree_half}")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    def __mul__(self, other: EquivClass) -> EquivClass:
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("classes live over different fixed-point sets")
        return EquivClass(
            self.degree_half + other.degree_half,
            tuple(a * b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def power(self, a: int) -> EquivClass:
        if a < 0:
            raise ValueError("negative power")
        return EquivClass(
            self.degree_half * a, tuple(c**a for c in self.coeffs)
        )


def unit_class(data: FixedPointData) -> EquivClass:
    """The class 1: degree 0, every restriction 1."""
    return EquivClass(0, (Fraction(1),) * (data.n + 2))


def symplectic_class(data: FixedPointData) -> EquivClass:
    """Equivariant extension of the symplectic class.

    At an isolated fixed point P the restriction is (phi_min - phi(P)) * t;
    only moment differences enter, so shifting all moment values by a
    constant leaves the class unchanged.
    """
    phi0 = data.points[0].phi
    return EquivClass(1, tuple(Fraction(phi0 - p.phi) for p in data.points))


def chern_classes(data: FixedPointData) -> list[EquivClass]:
    """The equivariant Chern classes c_1..c_n: c_i restricts at each point to
    the i-th elementary symmetric polynomial of its weights times t^i.

    Each point's elementary symmetric polynomials are computed once. c_n is
    the equivariant Euler class of the normal bundle, the full weight
    product at each point.
    """
    esym = [elementary_symmetric(p.weights) for p in data.points]
    return [EquivClass(i, tuple(e[i] for e in esym)) for i in range(1, data.n + 1)]


def chern_restriction(data: FixedPointData, i: int) -> EquivClass:
    """The i-th equivariant Chern class, 1 <= i <= n (see ``chern_classes``)."""
    if not 1 <= i <= data.n:
        raise ValueError(f"Chern index {i} out of range 1..{data.n}")
    return chern_classes(data)[i - 1]


def integrate(data: FixedPointData, cls: EquivClass) -> Fraction:
    """Localization sum over the fixed points.

    Returns sum_i coeffs[i] / Lambda_i, the coefficient of t^(d-n). Below the
    top degree the sum must be exactly zero (NotAManifoldError otherwise); at
    the top degree it is the ordinary integral over the manifold, and above
    it the push-forward lands in positive degree of the base.
    """
    if len(cls.coeffs) != data.n + 2:
        raise ValueError("class does not match the fixed-point set")
    total = Fraction(0)
    for i, c in enumerate(cls.coeffs):
        total += c / point_invariants(data, i).lambda_full
    d = cls.degree_half
    if d < data.n and total != 0:
        raise NotAManifoldError(
            f"localization sum of a degree-{2 * d} class is {total}, "
            f"expected 0 below degree {2 * data.n}"
        )
    return total


def localization_sums(
    data: FixedPointData, degrees: Iterable[int], *, with_u: bool, with_chern: bool
) -> Iterator[tuple[int, tuple[int, ...], Fraction]]:
    """Stream (a, parts, integral of u^a * c_parts), u the symplectic class.

    For each half-degree d (at most n) in the given order, a runs from d down
    to 0 (only 0 without u, only d without Chern classes) and parts over the
    partitions of d - a in the order of ``partitions``. Each point's
    elementary symmetric polynomials and u(P) = phi_0 - phi(P) are computed
    once; the walk is depth first, each part extending its parent's
    per-point products, summed in integers over lcm |Lambda_P|.
    """
    esym = [elementary_symmetric(p.weights) for p in data.points]
    common = lcm(*(e[data.n] for e in esym))
    phi0 = data.points[0].phi
    roots = [(common // e[data.n], phi0 - p.phi) for e, p in zip(esym, data.points)]

    def walk(
        products: list[int], remaining: int, largest: int
    ) -> Iterator[tuple[tuple[int, ...], int]]:
        if remaining == 0:
            yield (), sum(products)
            return
        for part in range(min(remaining, largest), 0, -1):
            extended = [x * e[part] for x, e in zip(products, esym)]
            for rest, total in walk(extended, remaining - part, part):
                yield (part,) + rest, total

    for d in degrees:
        for a in range(d if with_u else 0, -1 if with_chern else d - 1, -1):
            products = [scale * u**a for scale, u in roots]
            for parts, total in walk(products, d - a, d - a):
                yield a, parts, Fraction(total, common)


def chern_number(data: FixedPointData, partition: Sequence[int]) -> Fraction:
    """Integral of the product of Chern classes indexed by the partition.

    The partition must sum to n; the result is an integer (as a Fraction)
    for data coming from an actual manifold. The Chern numbers are walked in
    the order of ``partitions`` up to this one.
    """
    parts = list(partition)
    if not parts or any(not 1 <= p <= data.n for p in parts):
        raise ValueError(f"partition entries must lie in 1..{data.n}: {parts}")
    if sum(parts) != data.n:
        raise ValueError(f"partition {parts} does not sum to n={data.n}")
    wanted = tuple(sorted(parts, reverse=True))
    sums = localization_sums(data, [data.n], with_u=False, with_chern=True)
    return next(total for _, walked, total in sums if walked == wanted)


def euler_characteristic(data: FixedPointData) -> Fraction:
    """Integral of the top Chern class; equals the number of fixed points."""
    return chern_number(data, [data.n])


def partitions(total: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of total into parts 1..largest, nonincreasing."""
    if largest is None:
        largest = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def pairing_matrix(data: FixedPointData, basis) -> list[list[int]]:
    """Intersection pairing of the basis rows, via localization.

    Entry (i, j) is the integral of row_i * row_j when the degrees are
    complementary (sum 2n) and 0 otherwise. With the basis entries N / D and
    L = lcm |Lambda_P|, it is sum_P N_i[P] * N_j[P] * (L / Lambda_P) over
    D^2 * L, summed in integers and reduced once. Entries must be integers;
    the first fractional value in row-major order raises IntegralityError.
    The matrix is symmetric, so only i <= j is summed: the first fractional
    entry in row-major order always lies there.
    """
    m = data.n + 2
    rows = basis.numerators
    degrees = basis.half_degrees
    products = [prod(p.weights) for p in data.points]
    common = lcm(*products)
    scales = [common // w for w in products]
    den = basis.denominator**2 * common
    out = [[0] * m for _ in range(m)]
    for i in range(m):
        scaled = [a * s for a, s in zip(rows[i], scales)]
        for j in range(i, m):
            if degrees[i] + degrees[j] != data.n:
                continue
            total = sum(map(mul, scaled, rows[j]))
            value, rest = divmod(total, den)
            if rest:
                raise IntegralityError(
                    f"pairing ({i},{j}) is {Fraction(total, den)}, expected an integer"
                )
            out[i][j] = out[j][i] = value
    return out
