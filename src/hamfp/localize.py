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
and is divided by L once with ``exactnum.exact_fraction``, so a value is an
``int`` when the sum is integral and a ``Fraction`` only when it is not.

Pure powers of the symplectic class u need no walk: ``u_power_integrals``
sums the column of shares times h_P^a once per power a, with the height
h_P = phi_0 - phi_P. Monomials with Chern classes are integrated without
restriction tuples, on one walk, ``_walk``, over a stack of partial
partitions, parts in nondecreasing order, each node grown by one part while
the parts chosen still leave room, under a size bound, for a last part no
smaller. A child whose room cannot take another part is a leaf: it is
never pushed, and the walk yields its last part beside its parent. A node
or a leaf is closed with a last part r, against a closing column that
already carries the shares: e_r(P) * (L / Lambda_P), times a power of h_P
where u enters. Two callers share the walk.
``labelled_chern_numbers`` walks with room n over distinct Chern rows, not
over points: the rows e_0..e_n of two points that are equal, or equal once
the odd entries of one are negated, as at the weights w and -w of an
antipodal pair, give every degree-n monomial the same value, because
e_k(-w) = (-1)^k e_k(w) and n is even, so the shares of such points are
added and the row is walked once. It closes each node with its whole room,
and each leaf against a column that carries the leaf's last two parts. It
labels each partition with its text and yields one Chern number per
partition, in an unspecified order; the report writers impose any order a
reader sees.
``localization_consistent``, the classifier's final test, reads the pure
powers of u below the top degree from ``u_power_integrals``, then walks
with room n - 1: each node and each leaf is closed against every u-power it
pairs with below the top degree, and the test stops at the first nonzero
sum.
When e_1 is affine in the height, the c_1 lemma in its docstring lets it
skip every partition with a part 1.
``chern_table`` expands each point's weights into their elementary
symmetric polynomials; the engine and ``basis.express_chern`` build it from
their dataset, and a caller that reads one table twice shares its
expansions through an ``expansion_memo``. The memo expands each multiset of
weights up to negation once, in any order of the weights: the row of -w is
the row of w with its odd entries negated, so on the standard data an
antipodal pair of points costs one expansion.
``integrate`` is the primitive for arbitrary classes, and ``chern_number``
integrates its one product of Chern classes through it. ``pairing_matrix``
sums products of basis rows over the basis denominator squared times L, on
the dataset that the basis holds.

Every function but ``expansion_memo`` is a pure function of immutable
inputs; the memo's expand is a closure over a dict it fills.
"""

from __future__ import annotations

from math import prod
from operator import index, mul
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .errors import IntegralityError, NotAManifoldError
from .exactnum import elementary_symmetric, exact_fraction, shares
from .fpdata import FixedPointData
from .record import Record

if TYPE_CHECKING:
    from fractions import Fraction


class EquivClass(Record):
    """Restrictions of one homogeneous class: coeffs[i] * t^degree_half at
    point i."""

    __slots__ = ("degree_half", "coeffs")
    degree_half: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        # operator.index raises TypeError on a float or string; a Fraction
        # coefficient is kept as given. fractions loads here, not with the
        # module: the CLI builds no EquivClass.
        from fractions import Fraction

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
    return EquivClass(1, tuple([phi0 - p.phi for p in data.points]))


# Expands weights into their elementary symmetric polynomials e_0 .. e_n.
Expand = Callable[[Sequence[int]], list[int]]


def expansion_memo() -> Expand:
    """A fresh memo of ``elementary_symmetric``, keyed by the multiset of the
    weights up to negation. A miss expands the weights through this module's
    binding, where perfbench/tracing.py counts expansions, and files the row
    under the sorted weights and the row with its odd entries negated,
    e_k(-w) = (-1)^k e_k(w), under the sorted negated weights. A caller that
    reads one dataset's Chern table twice passes it as ``expand`` to both
    readers. Rows are shared between calls, so readers must not change them.
    """
    rows: dict[tuple[int, ...], list[int]] = {}

    def expand(weights: Sequence[int]) -> list[int]:
        key = tuple(sorted(weights))
        row = rows.get(key)
        if row is None:
            row = rows[key] = elementary_symmetric(weights)
            flip = [-e if k % 2 else e for k, e in enumerate(row)]
            rows.setdefault(tuple([-w for w in reversed(key)]), flip)
        return row

    return expand


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


def integrate(data: FixedPointData, cls: EquivClass) -> int | Fraction:
    """Localization sum over the fixed points.

    Returns sum_i coeffs[i] / Lambda_i, the coefficient of t^(d-n), an int
    when it is integral and a Fraction otherwise. Below the top degree the
    sum must be exactly zero (NotAManifoldError otherwise); at the top
    degree it is the ordinary integral over the manifold, and above it the
    push-forward lands in positive degree of the base.
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


def _walk(
    columns: Sequence[Sequence[int]], room: int, smallest: int
) -> Iterator[tuple[list[int], int, int, tuple[int, ...], range]]:
    """Every internal node of one partition tree, popped off an explicit
    stack, with the last parts of its leaves.

    A node is (products, room, smallest, parts, leaves): parts are the parts
    chosen so far, in nondecreasing order and held largest first, products
    the product of e_p(P) over its parts p at each point P, room the size
    still free, and smallest the least part that may follow. The root has no
    parts and products 1. A child extends a node by one part q from smallest
    up to half the room, so that the room left still fits a last part no
    smaller. The child is a leaf when its room, room - q, is below 2q, so
    that it can take no further part: leaves lists those q, and a leaf is
    never pushed. Each node is yielded before its other children are
    pushed, and the walk is depth first: once a node is yielded, all of its
    descendants are yielded before any other node, so the last node yielded
    with one part fewer than a node is its parent. A caller closes a node
    with a last part r, smallest <= r <= room, read against the column
    e_r(P) times the shares L / Lambda_P, and closes each leaf q the same
    way from its products, those of the node times e_q, with room - q and
    smallest q. Closed so, and the root also with the empty partition, the
    nodes and their leaves give every partition with parts at least the
    root's smallest and size at most its room exactly once.
    """
    stack = [([1] * len(columns[0]), room, smallest, ())]
    while stack:
        products, room, smallest, parts = stack.pop()
        leaves = range(max(smallest, room // 3 + 1), room // 2 + 1)
        yield products, room, smallest, parts, leaves
        for part in range(smallest, leaves.start):
            extended = list(map(mul, products, columns[part]))
            stack.append((extended, room - part, part, (part,) + parts))


def _merge_flips(
    table: Sequence[Sequence[int]], scales: Sequence[int]
) -> dict[tuple[int, ...], int]:
    """Each point's Chern row or its flip, whichever is larger, with the sum
    of the shares of the points that have it; the flip of a row negates its
    odd entries."""
    merged: dict[tuple[int, ...], int] = {}
    for row, scale in zip(table, scales):
        flip = tuple(-e if k % 2 else e for k, e in enumerate(row))
        key = max(tuple(row), flip)
        merged[key] = merged.get(key, 0) + scale
    return merged


def labelled_chern_numbers(
    data: FixedPointData, expand: Expand | None = None
) -> Iterator[tuple[tuple[int, ...], str, int | Fraction]]:
    """Stream (parts, label, c_parts[M]) for every partition of n, its parts
    written largest first and its label their text in braces, as "{3,1}",
    in an unspecified order; the report writers impose any order a reader
    sees. Each number is an int when it is integral, as on data from a
    manifold, and a Fraction otherwise. ``expand`` is as in ``chern_table``.

    The sum runs over distinct Chern rows, not over points. A point's row is
    e_0..e_n of its weights; its flip negates the odd entries, and is the
    row of the negated weights, since e_k(-w) = (-1)^k e_k(w). A monomial
    of degree n takes the same value on a row and on its flip, as n is
    even, so every point adds its share L / Lambda_P, L = lcm |Lambda_P|,
    to the larger of its row and the flip, and each Chern number is the sum
    over those keys of the monomial at the key times the merged share. On
    the standard data each antipodal pair of points is one key.

    One ``_walk`` with room n over the merged rows. Each node closes its one
    partition of size exactly n, the room as its last part, in the dot
    product of its products with the column e_room * (merged shares). Each
    leaf q of a node closes the partition that ends in q and its room
    r = room - q, against the pair column e_q * e_r * (merged shares),
    built once for each q <= r < 2q with q + r <= n. A node's label tail,
    the text of its parts each after a comma, is built once for the node
    and its leaves, from its parent's tail and its largest part. Every sum
    is an integer over L, divided once with ``exact_fraction``.
    """
    n = data.n
    table = chern_table(data, expand)
    common, scales = shares([row[n] for row in table])
    merged = _merge_flips(table, scales)
    columns = list(zip(*merged))
    closing = [list(map(mul, column, merged.values())) for column in columns]
    pairs = {
        (q, r): list(map(mul, columns[q], closing[r]))
        for q in range(1, n // 2 + 1)
        for r in range(q, min(2 * q, n - q + 1))
    }
    names = [str(k) for k in range(n + 1)]
    commas = ["," + name for name in names]
    # tails[d] is the label tail of the last node walked with d parts, and
    # the parent of a node with d parts is the last node walked with d - 1
    tails = [""] * (n + 1)
    for products, room, _, parts, leaves in _walk(columns, n, 1):
        depth = len(parts)
        if depth:
            tails[depth] = commas[parts[0]] + tails[depth - 1]
        tail = tails[depth]
        total = sum(map(mul, products, closing[room]))
        value = exact_fraction(total, common)
        yield (room,) + parts, "{" + names[room] + tail + "}", value
        for q in leaves:
            r = room - q
            total = sum(map(mul, products, pairs[q, r]))
            value = exact_fraction(total, common)
            yield (r, q) + parts, "{" + names[r] + commas[q] + tail + "}", value


def u_power_integrals(data: FixedPointData) -> list[int | Fraction]:
    """The integrals of u^a for a = 0..n, u the symplectic class, each an
    int when it is integral and a Fraction otherwise.

    u^a restricts to h_P^a at P, h_P = phi_0 - phi_P, so each is the sum of
    the column of shares L / Lambda_P times h_P^a, over L = lcm |Lambda_P|.
    Every one below a = n must vanish on data from a manifold.
    """
    common, column = shares([prod(p.weights) for p in data.points])
    phi0 = data.points[0].phi
    heights = [phi0 - p.phi for p in data.points]
    integrals = []
    for _ in range(data.n + 1):
        integrals.append(exact_fraction(sum(column), common))
        column = list(map(mul, column, heights))
    return integrals


def localization_consistent(data: FixedPointData) -> bool:
    """Exact vanishing of every localization sum below the top degree.

    Checks the monomials u^a * c_lambda of total degree a + |lambda| < n,
    where u is the equivariant symplectic class, restricting to
    h_P = phi_0 - phi_P at P, and c_k the equivariant Chern classes,
    restricting to e_k(P). A nonzero sum proves the data comes from no
    manifold.

    The pure powers u^a, a < n, the monomials of the empty partition, are
    read first from ``u_power_integrals``; a Fraction is built only when one
    of them already has a nonzero fractional integral, and the test then
    fails. Every other sum is compared with 0 in integers over
    L = lcm |Lambda_P|. One ``_walk`` with room n - 1 visits each nonempty
    partition lambda once. A node mu with room b closes each partition
    mu + (r), smallest <= r <= b, against every u-power it pairs with,
    through the precomputed closing columns e_r(P) * h_P^a * (L / Lambda_P)
    with a <= b - r. Each leaf q of the node is closed the same way, from
    the node's products times e_q, with room b - q and smallest part q.

    The c_1 lemma: when e_1(P) = alpha + beta * h_P at every point, for
    rationals alpha and beta, no partition with a part 1 is walked. The
    restrictions give, for every partition mu and every a,

        S(u^a c_1 c_mu) = alpha * S(u^a c_mu) + beta * S(u^(a+1) c_mu),

    with S the localization sum sum_P (restriction at P) / Lambda_P. If the
    left side is below the top degree, so are both terms on the right, and
    each has one part 1 fewer. So by induction on the number of parts 1,
    every sum below the top degree vanishes as soon as those without a part
    1 do, and the verdict is that of the full check. In dimension above 4
    the classifier hands over only data whose weight sums are affine in the
    moment values, so there the skip always applies. Affinity is tested in
    integers: every point must lie on the line through P_0 and the point Q
    of largest |h_Q|, (e_1(P) - e_1(P_0)) * h_Q = (e_1(Q) - e_1(P_0)) * h_P;
    if every h_P is 0, Q is P_0 itself and its run is taken as 1, so e_1
    must be constant.
    """
    n = data.n
    if any(u_power_integrals(data)[:n]):
        return False
    columns = list(zip(*chern_table(data)))
    _, scales = shares(columns[n])
    phi0 = data.points[0].phi
    heights = [phi0 - p.phi for p in data.points]
    e1 = columns[1]
    q = max(range(len(heights)), key=lambda i: abs(heights[i]))
    run, rise = heights[q] or 1, e1[q] - e1[0]
    affine = all((e - e1[0]) * run == rise * h for e, h in zip(e1, heights))
    smallest = 2 if affine else 1
    # closing[r][a][P] = e_r(P) * h_P^a * (L / Lambda_P), for every u-power
    # a below n - r
    closing = {}
    for r in range(smallest, n):
        powers = [list(map(mul, columns[r], scales))]
        for _ in range(n - 1 - r):
            powers.append(list(map(mul, powers[-1], heights)))
        closing[r] = powers
    for products, room, least, _, leaves in _walk(columns, n - 1, smallest):
        # q = 0 closes the node itself, as e_0 = 1; every other q a leaf
        for q in (0, *leaves):
            vector = list(map(mul, products, columns[q])) if q else products
            for r in range(q or least, room - q + 1):
                for column in closing[r][: room - q - r + 1]:
                    if sum(map(mul, vector, column)):
                        return False
    return True


def chern_number(data: FixedPointData, partition: Sequence[int]) -> int | Fraction:
    """Integral of the product of Chern classes indexed by the partition.

    The partition must sum to n; the result is an int for data coming from
    an actual manifold, and a Fraction only when it is not integral. Only
    this partition is summed: the class restricting to prod_k e_(lambda_k)(P)
    at each point P goes to ``integrate``.
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
                    f"pairing ({i},{j}) is {exact_fraction(total, den)}, "
                    "expected an integer"
                )
            out[i][j] = out[j][i] = value
    return out
