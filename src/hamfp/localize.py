"""Equivariant classes as restriction tuples, and exact localization.

A homogeneous equivariant class of degree 2d restricts at each isolated fixed
point to a rational multiple of t^d, so it is stored as one rational per
point together with the common half-degree d. Integration over the manifold
is the fixed-point localization sum: the restriction at each point divided by
the product of its weights, with the result a rational multiple of t^(d-n). For
d < n the sum must vanish exactly; a nonzero value is reported as
``NotAManifoldError`` since no compact Hamiltonian circle manifold can
produce it.

Every sum here is an integer dot product with the shares L / Lambda_P of
L = lcm |Lambda_P| (``exactnum.shares``), Lambda_P read from the dataset,
and is divided by L once with ``exactnum.exact_fraction``.

Monomials u^a * c_lambda in the symplectic class and the Chern classes are
integrated by one engine, ``localization_sums``, without restriction tuples:
one loop per degree and u-power pops partitions off a stack, parts in
nondecreasing order, and yields one monomial for every node as it pops it,
so the order of the partitions within a block is unspecified; the report
writers impose any order a reader sees. ``localization_consistent``, the
classifier's final test, asks it whether every sum below the top degree
vanishes, and stops at the first that does not.
``chern_table`` expands each point's weights into their elementary
symmetric polynomials; the engine and ``basis.express_chern`` build it from
their dataset, and callers share expansions through an ``expansion_memo``.
``integrate`` is the primitive for arbitrary classes, and ``chern_number``
integrates its one product of Chern classes through it. ``pairing_matrix``
sums products of basis rows over the basis denominator squared times L, on
the dataset that the basis holds.

Everything is a pure function of immutable inputs; sums of exact rationals
are order-independent, so callers may parallelize freely.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import prod
from operator import index, mul
from typing import Callable, Iterable, Iterator, Sequence

from .errors import IntegralityError, NotAManifoldError
from .exactnum import elementary_symmetric, exact_fraction, shares
from .fpdata import FixedPointData
from .record import Record


class EquivClass(Record):
    """Restrictions of one homogeneous class: coeffs[i] * t^degree_half at
    point i."""

    __slots__ = ("degree_half", "coeffs")
    degree_half: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        # operator.index raises TypeError on a float or string; a Fraction
        # coefficient is kept as given
        object.__setattr__(self, "degree_half", index(self.degree_half))
        if self.degree_half < 0:
            raise ValueError(f"negative degree {self.degree_half}")
        coeffs = [
            c if isinstance(c, Fraction) else Fraction(index(c)) for c in self.coeffs
        ]
        object.__setattr__(self, "coeffs", tuple(coeffs))


def symplectic_class(data: FixedPointData) -> EquivClass:
    """Equivariant extension of the symplectic class.

    At an isolated fixed point P the restriction is (phi_min - phi(P)) * t;
    only moment differences enter, so shifting all moment values by a
    constant leaves the class unchanged.
    """
    phi0 = data.points[0].phi
    return EquivClass(1, tuple(Fraction(phi0 - p.phi) for p in data.points))


# Expands weights into their elementary symmetric polynomials e_0 .. e_n.
Expand = Callable[[Sequence[int]], list[int]]


def expansion_memo() -> Expand:
    """A fresh memo of ``elementary_symmetric``, made here, where
    perfbench/tracing.py counts expansions. A caller that reads one dataset's
    Chern table twice passes it as ``expand`` to both readers."""
    return cache(elementary_symmetric)


def chern_table(data: FixedPointData, expand: Expand | None = None) -> list[list[int]]:
    """Each point's elementary symmetric polynomials e_0..e_n of its weights.

    Entry [P][k] is the restriction of c_k to P over t^k: c_0 = 1, and c_n is
    the weight product Lambda_P. ``expand`` defaults to elementary_symmetric.
    """
    expand = expand or elementary_symmetric
    return [expand(p.weights) for p in data.points]


def chern_restriction(data: FixedPointData, i: int) -> EquivClass:
    """The i-th equivariant Chern class, 1 <= i <= n: it restricts at each
    point to the i-th elementary symmetric polynomial of its weights times
    t^i, column i of ``chern_table``.

    c_n is the equivariant Euler class of the normal bundle, the full weight
    product at each point.
    """
    if not 1 <= i <= data.n:
        raise ValueError(f"Chern index {i} out of range 1..{data.n}")
    return EquivClass(i, tuple(e[i] for e in chern_table(data)))


def integrate(data: FixedPointData, cls: EquivClass) -> Fraction:
    """Localization sum over the fixed points.

    Returns sum_i coeffs[i] / Lambda_i, the coefficient of t^(d-n). Below the
    top degree the sum must be exactly zero (NotAManifoldError otherwise); at
    the top degree it is the ordinary integral over the manifold, and above
    it the push-forward lands in positive degree of the base.
    """
    if len(cls.coeffs) != data.n + 2:
        raise ValueError("class does not match the fixed-point set")
    scale, lifts = shares([c.denominator for c in cls.coeffs])
    common, weights = shares([prod(p.weights) for p in data.points])
    num = sum(c.numerator * x * w for c, x, w in zip(cls.coeffs, lifts, weights))
    total = exact_fraction(num, scale * common)
    d = cls.degree_half
    if d < data.n and total != 0:
        raise NotAManifoldError(
            f"localization sum of a degree-{2 * d} class is {total}, "
            f"expected 0 below degree {2 * data.n}"
        )
    return total


def localization_sums(
    data: FixedPointData,
    degrees: Iterable[int],
    *,
    with_u: bool,
    with_chern: bool,
    expand: Expand | None = None,
) -> Iterator[tuple[int, tuple[int, ...], Fraction]]:
    """Stream (a, parts, integral of u^a * c_parts), u the symplectic class.

    For each half-degree d (at most n with Chern classes) in the given order,
    a runs from d down to 0 (only 0 without u, only d without Chern classes)
    and parts over the partitions of d - a, each written largest part first,
    in an unspecified order within the (d, a) block. A negative d, or with
    Chern classes one above n, raises ValueError when the stream reaches it,
    and so at once does asking for neither u nor Chern classes. Sums are
    exact, in integers over L = lcm |Lambda_P| with Lambda_P the dataset's
    weight products, and each is divided by L once with ``exact_fraction``.
    Pure powers of u need only the weight products; Chern monomials read each
    point's e_k from ``chern_table(data, expand)``.

    Each (d, a) block is one loop over a stack of nodes (products, remainder
    r, smallest next part, parts), with parts chosen in nondecreasing order.
    A node's products are u(P)^a * e_p1(P) * ... at each point P. Popping a
    node yields its leaf at once: the whole remainder r taken as the last
    part, the dot product of its products with the column e_r(P) * (L /
    Lambda_P). Then its children are pushed, each extending the products by
    one part from the smallest next part up to half the remainder, so that
    the remainder left can still close it. The root of a block with a = d
    has remainder 0 and closes with e_0, the monomial u^d with parts ().
    """
    n = data.n
    if not (with_u or with_chern):
        raise ValueError("nothing to integrate: need u, Chern classes or both")
    if with_chern:
        columns = list(zip(*chern_table(data, expand)))
    else:
        columns = [[1] * (n + 2)]  # e_0 only
    common, scales = shares([prod(p.weights) for p in data.points])
    # closing[k][P]: the last factor e_k(P) of a monomial times its point's
    # share L / Lambda_P of the common denominator
    closing = [[x * s for x, s in zip(col, scales)] for col in columns]
    phi0 = data.points[0].phi
    heights = [phi0 - p.phi for p in data.points]
    for d in degrees:
        if d < 0:
            raise ValueError(f"negative half-degree {d}")
        if with_chern and d > n:
            raise ValueError(f"half-degree {d} of a Chern monomial exceeds n={n}")
        for a in range(d if with_u else 0, -1 if with_chern else d - 1, -1):
            # parts holds the chosen parts largest first
            stack = [([h**a for h in heights], d - a, 1, ())]
            while stack:
                products, remaining, smallest, parts = stack.pop()
                total = sum(map(mul, products, closing[remaining]))
                leaf = (remaining,) + parts if remaining else parts
                yield a, leaf, exact_fraction(total, common)
                for part in range(smallest, remaining // 2 + 1):
                    extended = list(map(mul, products, columns[part]))
                    stack.append((extended, remaining - part, part, (part,) + parts))


def localization_consistent(data: FixedPointData, expand: Expand | None = None) -> bool:
    """Exact vanishing of every localization sum below the top degree.

    Checks all monomials u^a * c_{i_1} ... c_{i_k} of total degree below n,
    where u is the equivariant symplectic class and c_i the equivariant Chern
    classes, in order of degree, and stops at the first nonzero sum: it
    proves the data comes from no manifold. ``expand`` is as in
    ``chern_table``.
    """
    sums = localization_sums(
        data, range(data.n), with_u=True, with_chern=True, expand=expand
    )
    return not any(total for _, _, total in sums)


def chern_number(data: FixedPointData, partition: Sequence[int]) -> Fraction:
    """Integral of the product of Chern classes indexed by the partition.

    The partition must sum to n; the result is an integer (as a Fraction)
    for data coming from an actual manifold. Only this partition is summed:
    the class restricting to prod_k e_(lambda_k)(P) at each point P goes to
    ``integrate``.
    """
    parts = list(partition)
    if not parts or any(not 1 <= p <= data.n for p in parts):
        raise ValueError(f"partition entries must lie in 1..{data.n}: {parts}")
    if sum(parts) != data.n:
        raise ValueError(f"partition {parts} does not sum to n={data.n}")
    restrictions = (prod(e[k] for k in parts) for e in chern_table(data))
    return integrate(data, EquivClass(data.n, tuple(restrictions)))


def partition_count(total: int) -> int:
    """p(total), the number of partitions, by the recurrence over the
    largest allowed part; no partition is built."""
    counts = [1] + [0] * total
    for part in range(1, total + 1):
        for k in range(part, total + 1):
            counts[k] += counts[k - part]
    return counts[total]


def pairing_matrix(basis) -> list[list[int]]:
    """Intersection pairing of the basis rows, via localization on its data.

    Entry (i, j) is the integral of row_i * row_j when the degrees are
    complementary (sum 2n) and 0 otherwise. With the basis entries N / D and
    L = lcm |Lambda_P|, it is sum_P N_i[P] * N_j[P] * (L / Lambda_P) over
    D^2 * L, summed in integers and reduced once. Entries must be integers;
    the first fractional value in row-major order raises IntegralityError.
    The matrix is symmetric, so only i <= j is summed: the first fractional
    entry in row-major order always lies there.
    """
    data = basis.data
    m = data.n + 2
    rows = basis.numerators
    degrees = basis.half_degrees
    common, scales = shares([prod(p.weights) for p in data.points])
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
