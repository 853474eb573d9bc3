"""Canonical module basis of equivariant cohomology from restriction data.

For a dataset with points P_0..P_{n+1} there is a basis 1 = a_0, a_1, ...,
a_{n+1} (over the polynomial ring of the classifying space) whose
restrictions are triangular in the moment order: a_i vanishes at every point
below P_i and restricts at P_i to the product of its negative weights times
t^(half degree). The remaining entries have closed forms in the weight sums
G_k and weight products:

* lower half (i <= n/2), k > i:   L_i^- * prod_{j<i} (G_k - G_j)/(G_i - G_j)
* upper half (i >= n/2+1), k > i: -(L_k / L_i^+) * prod_{j>i, j!=k}
                                   (G_i - G_j)/(G_k - G_j)

with half degree i in the lower half and i-1 in the upper half. The formulas
divide by differences of weight sums within one half, so those must be
pairwise distinct (DegenerateGammaError otherwise); the two halves may share
values across the middle.

Each entry is formed in integers, as a numerator over a denominator reduced
with one gcd, and no product is formed twice. In the lower half, taken in
moment order, prod_{j<i} (G_k - G_j) is a running product for every k that
gains one factor per row, and its value at k = i is the denominator shared
by the whole row. In the upper half, row by row from the top down,
prod_{j>i, j!=k} (G_k - G_j) is a running product of the same kind, and
prod_{j>i, j!=k} (G_i - G_j) is the row's one product over j > i divided
by G_i - G_k. So the products cost O(n^2) in all. The basis then keeps all
its entries as integer numerators over a single common denominator D, the
lcm of the entry denominators, so the basis is integral exactly when D = 1.

Expansion of an arbitrary class in this basis is forward substitution down
the moment order: the diagonal entries are nonzero weight products, and the
middle row n/2 is solved before row n/2+1, matching the declared order of
the middle pair even when their moment values tie. The substitution runs in
integers: the coefficients found so far are kept as numerators over one
running common denominator, each residual is an integer sum against the
basis numerators, and each new coefficient is one ``exact_fraction`` of
``exactnum``: an ``int`` when it is integral, and a reduced ``Fraction``
only when it is not. The half degrees never decrease down the rows, so the
substitution runs over the prefix of rows at or below the class degree; the
rows after it get coefficient 0 and are only checked to have a zero
residual.
``express_in_basis`` expands one ``EquivClass``; ``express_chern`` expands
c_1..c_n of the basis's own dataset from the integers of its ``chern_table``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import index, mul
from typing import Iterator, Sequence

from .errors import DegenerateGammaError, ExpansionError
from .exactnum import exact_fraction, shares
from .fpdata import FixedPointData, PointInvariants, morse_pattern, point_invariants
from .localize import EquivClass, Expand, chern_table
from .record import Record


class BasisRestrictions(Record):
    """The basis for ``data``: rows are the basis classes, columns the points.

    Entry (i, k) is numerators[i][k] / denominator. Row i has half degree i
    in the lower half and i-1 in the upper half (``half_degrees``). TypeError
    refuses a denominator or numerator that is not an integer, and ValueError
    a denominator below 1, numerators that are not n + 2 rows of n + 2, and a
    diagonal entry other than its point's negative weight product.
    """

    __slots__ = ("data", "numerators", "denominator")
    data: FixedPointData
    numerators: tuple[tuple[int, ...], ...]
    denominator: int

    def __post_init__(self) -> None:
        # operator.index raises TypeError on a float, Fraction or string, as
        # RingElement's coefficients do
        object.__setattr__(self, "denominator", index(self.denominator))
        rows = tuple(tuple(map(index, row)) for row in self.numerators)
        object.__setattr__(self, "numerators", rows)
        if self.denominator < 1:
            raise ValueError(f"denominator must be positive, got {self.denominator}")
        m = self.n + 2
        if len(self.numerators) != m or any(len(row) != m for row in self.numerators):
            raise ValueError(f"numerators are not n + 2 = {m} rows of {m} entries")
        for i, p in enumerate(self.data.points):
            lower = prod(w for w in p.weights if w < 0)
            if self.numerators[i][i] != lower * self.denominator:
                raise ValueError(f"basis entry ({i},{i}) does not match the dataset")

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def half_degrees(self) -> tuple[int, ...]:
        return morse_pattern(self.n)


class Expansion(Record):
    """Coefficients of a class in the basis: one (rational, t-power) pair per
    row, with cls = sum_i coeff_i * t^power_i * row_i.

    A coefficient is an int when it is integral and a Fraction otherwise.
    Rows whose degree exceeds the class degree carry coefficient 0 (their
    power is reported as 0). ``integral`` is True iff every coefficient is an
    integer.
    """

    __slots__ = ("terms",)
    terms: tuple[tuple[int | Fraction, int], ...]

    @property
    def integral(self) -> bool:
        return all(c.denominator == 1 for c, _ in self.terms)

    @property
    def coefficients(self) -> tuple[int | Fraction, ...]:
        return tuple(c for c, _ in self.terms)


def build_basis(
    data: FixedPointData, inv: Sequence[PointInvariants] | None = None
) -> BasisRestrictions:
    """Evaluate the closed-form basis restrictions for the dataset.

    ``inv`` holds ``point_invariants(data, i)`` for every point i, as a
    caller that also reports them has them; by default they are computed.
    """
    n = data.n
    m = n + 2
    half = n // 2
    if inv is None:
        inv = [point_invariants(data, i) for i in range(m)]
    gammas = [v.gamma for v in inv]
    for lo, hi, name in ((0, half + 1, "lower"), (half + 1, m, "upper")):
        seen: dict[int, int] = {}
        for i in range(lo, hi):
            if gammas[i] in seen:
                raise DegenerateGammaError(
                    f"points {seen[gammas[i]]} and {i} share weight sum "
                    f"{gammas[i]} in the {name} half"
                )
            seen[gammas[i]] = i

    # entries[i][k] = (numerator, denominator) of entry (i, k), reduced, with
    # a positive denominator
    entries = [[(0, 1)] * m for _ in range(m)]
    # below[k] = prod_{j<i} (G_k - G_j) at row i, one factor more per row
    below = [1] * m
    for i in range(half + 1):
        lower = inv[i].lambda_minus
        for k in range(i, m):
            entries[i][k] = _reduced(lower * below[k], below[i])
        for k in range(i + 1, m):
            below[k] *= gammas[k] - gammas[i]
    # above[k] = prod_{j>i, j!=k} (G_k - G_j) at row i, one factor more per
    # row from the top down; the row's own product over j>i, divided by
    # G_i - G_k, is prod_{j>i, j!=k} (G_i - G_j)
    above = [1] * m
    for i in range(m - 1, half, -1):
        entries[i][i] = (inv[i].lambda_minus, 1)
        full = prod(gammas[i] - gammas[j] for j in range(i + 1, m))
        for k in range(i + 1, m):
            num = -inv[k].lambda_full * (full // (gammas[i] - gammas[k]))
            entries[i][k] = _reduced(num, inv[i].lambda_plus * above[k])
            above[k] *= gammas[k] - gammas[i]
        above[i] = full
    denominator = lcm(*(den for row in entries for _, den in row))
    numerators = tuple(
        tuple(num * (denominator // den) for num, den in row) for row in entries
    )
    return BasisRestrictions(data, numerators, denominator)


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num / den, den != 0, in lowest terms with a positive denominator, by
    one gcd."""
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // g, den // g


def express_in_basis(basis: BasisRestrictions, cls: EquivClass) -> Expansion:
    """Expand a homogeneous class in the basis by forward substitution.

    The class degree 2d must satisfy d <= n+1. Rows of half degree above d
    cannot contribute; their residuals must vanish, otherwise the input tuple
    is not the restriction of any class (ExpansionError).
    """
    n = basis.n
    d = cls.degree_half
    if d > n + 1:
        raise ValueError(f"degree {2 * d} exceeds the basis range {2 * (n + 1)}")
    if len(cls.coeffs) != n + 2:
        raise ValueError("class does not match the basis point count")
    # The class is targets[k] / scale at point k.
    scale, lifts = shares([c.denominator for c in cls.coeffs])
    targets = [c.numerator * x for c, x in zip(cls.coeffs, lifts)]
    columns = list(zip(*basis.numerators))
    return _substitute(basis, columns, d, targets, scale)


def express_chern(
    basis: BasisRestrictions, expand: Expand | None = None
) -> Iterator[Expansion]:
    """Expansions of the Chern classes c_1..c_n of the basis's dataset.

    Entry [P][i] of ``chern_table(basis.data, expand)`` is the restriction
    of c_i to point P over t^i, an integer, so each class is expanded with
    scale 1 and no EquivClass is built. The basis is transposed once for all
    n classes. The expansions come one at a time: an ExpansionError at c_i
    leaves c_1..c_(i-1) with the caller.
    """
    columns = list(zip(*basis.numerators))
    table = chern_table(basis.data, expand)
    for i in range(1, basis.n + 1):
        yield _substitute(basis, columns, i, [e[i] for e in table], 1)


def _substitute(
    basis: BasisRestrictions,
    columns: list[tuple[int, ...]],
    d: int,
    targets: list[int],
    scale: int,
) -> Expansion:
    """Forward substitution of the class targets[k] / scale * t^d at point k.

    ``columns`` is the transpose of ``basis.numerators``. The coefficients
    found so far are found[i] / common and the basis entries numerators / D,
    so each residual is one integer sum, and each coefficient one
    ``exact_fraction``. The rows above degree d are a suffix, as the half
    degrees never decrease down the rows, and their coefficients are 0: they
    add nothing to ``found``, whose sums then run over the prefix only.
    """
    degrees = basis.half_degrees
    numerators = basis.numerators
    den_basis = basis.denominator
    found: list[int] = []
    common = 1
    terms: list[tuple[int | Fraction, int]] = []
    for k, column in enumerate(columns):
        # residual * scale * common * D, in integers
        top = targets[k] * common * den_basis - scale * sum(map(mul, found, column))
        if degrees[k] > d:
            if top:
                residual = Fraction(top, scale * common * den_basis)
                raise ExpansionError(
                    f"degree-{2 * d} tuple is outside the basis span: residual "
                    f"{residual} at point {k}"
                )
            terms.append((0, 0))
            continue
        coeff = exact_fraction(top, scale * common * numerators[k][k])
        terms.append((coeff, d - degrees[k]))
        grow = coeff.denominator // gcd(common, coeff.denominator)
        if grow != 1:
            found = [a * grow for a in found]
            common *= grow
        found.append(coeff.numerator * (common // coeff.denominator))
    return Expansion(tuple(terms))
