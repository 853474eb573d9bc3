"""Integral cohomology ring of the oriented 2-plane Grassmannian, dim 2n.

The ring for even n has free additive basis 1, x, ..., x^(n/2-1) (x of
degree 2), y and z in the middle degree n, and g_k = x^k y for 1 <= k <= n/2
(top class g_{n/2}). The multiplicative relations are

    x^(n/2) = y + z,        x*y = x*z = g_1,       x*g_k = g_{k+1},
    n = 4m+2:  y^2 = z^2 = 0,        y*z = g_{n/2},
    n = 4m:    y^2 = z^2 = g_{n/2},  y*z = 0,

and every product of degree above 2n vanishes. Powers of x above n/2-1 are
not basis labels; they expand as x^(n/2) = y + z and x^(n/2+k) = 2 g_k.

The module also maps each localization basis row to its ordinary image in
this ring (rows of the lower half land on powers of x, the two middle rows
on x^(n/2) = y+z and z, the upper rows on the g_k), which turns equivariant
Chern expansions into ordinary Chern classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .basis import BasisRestrictions, Expansion, express_in_basis
from .errors import IntegralityError
from .fpdata import FixedPointData
from .localize import chern_restriction


@dataclass(frozen=True)
class RingElement:
    """Integer coefficient vector over the graded basis labels."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        if len(self.coeffs) != self.n + 2:
            raise ValueError("coefficient vector does not match the basis size")

    def __add__(self, other: RingElement) -> RingElement:
        if self.n != other.n:
            raise ValueError("elements of different rings")
        return RingElement(
            self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rmul__(self, scalar: int) -> RingElement:
        return RingElement(self.n, tuple(scalar * c for c in self.coeffs))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __str__(self) -> str:
        labels = ring_labels(self.n)
        terms = []
        for c, label in zip(self.coeffs, labels):
            if c == 0:
                continue
            if label == "1":
                terms.append(str(c))
            elif c == 1:
                terms.append(label)
            elif c == -1:
                terms.append(f"-{label}")
            else:
                terms.append(f"{c}*{label}")
        return " + ".join(terms) if terms else "0"


def ring_labels(n: int) -> tuple[str, ...]:
    half = n // 2
    labels = ["1"]
    labels += ["x" if k == 1 else f"x^{k}" for k in range(1, half)]
    labels += ["y", "z"]
    labels += [f"g_{k}" for k in range(1, half + 1)]
    return tuple(labels)


@dataclass(frozen=True)
class RingTable:
    """Multiplication table over the graded basis, fixed per even n."""

    n: int
    labels: tuple[str, ...]
    products: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def one(self) -> RingElement:
        return self.element(0)

    def element(self, index: int) -> RingElement:
        coeffs = [0] * (self.n + 2)
        coeffs[index] = 1
        return RingElement(self.n, tuple(coeffs))

    def zero(self) -> RingElement:
        return RingElement(self.n, (0,) * (self.n + 2))


def _index_y(n: int) -> int:
    return n // 2


def _index_z(n: int) -> int:
    return n // 2 + 1


def _index_g(n: int, k: int) -> int:
    return n // 2 + 1 + k


def x_power(table: RingTable, k: int) -> RingElement:
    """The element x^k expanded over the basis labels (0 for k > n)."""
    n = table.n
    half = n // 2
    if k < 0:
        raise ValueError("negative power")
    if k <= half - 1:
        return table.element(k)
    if k == half:
        return table.element(_index_y(n)) + table.element(_index_z(n))
    if k <= n:
        return 2 * table.element(_index_g(n, k - half))
    return table.zero()


def _basis_product(n: int, i: int, j: int) -> tuple[int, ...]:
    half = n // 2
    size = n + 2

    def vec(pairs: Sequence[tuple[int, int]]) -> tuple[int, ...]:
        out = [0] * size
        for idx, c in pairs:
            out[idx] += c
        return tuple(out)

    def kind(idx: int) -> tuple[str, int]:
        if idx == 0:
            return ("one", 0)
        if idx <= half - 1:
            return ("x", idx)
        if idx == _index_y(n):
            return ("y", 0)
        if idx == _index_z(n):
            return ("z", 0)
        return ("g", idx - half - 1)

    a, b = kind(i), kind(j)
    if a[0] == "one":
        return vec([(j, 1)])
    if b[0] == "one":
        return vec([(i, 1)])
    rank = {"x": 0, "y": 1, "z": 2, "g": 3}
    if rank[a[0]] > rank[b[0]]:
        a, b = b, a
    if a[0] == "x" and b[0] == "x":
        s = a[1] + b[1]
        if s <= half - 1:
            return vec([(s, 1)])
        if s == half:
            return vec([(_index_y(n), 1), (_index_z(n), 1)])
        if s <= n:
            return vec([(_index_g(n, s - half), 2)])
        return vec([])
    if a[0] == "x" and b[0] in ("y", "z"):
        return vec([(_index_g(n, a[1]), 1)])
    if a[0] == "x" and b[0] == "g":
        s = a[1] + b[1]
        return vec([(_index_g(n, s), 1)]) if s <= half else vec([])
    if (a[0], b[0]) in (("y", "y"), ("z", "z")):
        return vec([(_index_g(n, half), 1)]) if n % 4 == 0 else vec([])
    if (a[0], b[0]) == ("y", "z"):
        return vec([(_index_g(n, half), 1)]) if n % 4 == 2 else vec([])
    # y*g, z*g, g*g: degree above 2n
    return vec([])


def ring_make(n: int) -> RingTable:
    """Build the multiplication table for even n >= 2."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and positive, got {n}")
    size = n + 2
    products = tuple(
        tuple(_basis_product(n, i, j) for j in range(size)) for i in range(size)
    )
    return RingTable(n, ring_labels(n), products)


def ring_mul(table: RingTable, a: RingElement, b: RingElement) -> RingElement:
    """Bilinear extension of the table; degrees above 2n vanish."""
    if a.n != table.n or b.n != table.n:
        raise ValueError("elements do not belong to this ring")
    out = [0] * (table.n + 2)
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for j, cb in enumerate(b.coeffs):
            if cb == 0:
                continue
            for idx, c in enumerate(table.products[i][j]):
                if c:
                    out[idx] += ca * cb * c
    return RingElement(table.n, tuple(out))


def ring_integral(table: RingTable, elem: RingElement) -> int:
    """Coefficient of the top class g_{n/2}: the integral over the manifold."""
    return elem.coeffs[_index_g(table.n, table.n // 2)]


def betti(n: int) -> list[int]:
    """Ranks of the even cohomology groups H^0, H^2, ..., H^2n.

    All ranks are 1 except rank 2 in the middle degree n; odd degrees vanish.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and positive, got {n}")
    ranks = [1] * (n + 1)
    ranks[n // 2] = 2
    return ranks


def basis_images(table: RingTable) -> tuple[RingElement, ...]:
    """Ordinary image of each localization basis row.

    Row j restricts to x^j for j < n/2; the middle rows, of degree n, land on
    x^(n/2) = y + z and on z (the y/z choice is immaterial: every relation is
    symmetric in y and z); row j >= n/2+2 lands on (1/2) x^(j-1) = g_(j-1-n/2).
    """
    n = table.n
    half = n // 2
    images = [x_power(table, j) for j in range(half + 1)]
    images.append(table.element(_index_z(n)))
    images += [table.element(_index_g(n, j - 1 - half)) for j in range(half + 2, n + 2)]
    return tuple(images)


def ordinary_chern(
    data: FixedPointData, basis: BasisRestrictions, table: RingTable
) -> list[RingElement]:
    """Ordinary Chern classes c_1(M)..c_n(M) in the ring basis.

    Each equivariant Chern class is expanded in the localization basis and
    mapped by ``ordinary_from_expansions``.
    """
    if table.n != data.n:
        raise ValueError("ring and dataset have different n")
    chern = [chern_restriction(data, i) for i in range(1, data.n + 1)]
    return ordinary_from_expansions(table, [express_in_basis(basis, c) for c in chern])


def ordinary_from_expansions(
    table: RingTable, expansions: Sequence[Expansion]
) -> list[RingElement]:
    """Ordinary classes of c_1..c_n from their expansions in the basis.

    Each expansion must be integral (IntegralityError otherwise). Setting t
    to 0 keeps only the terms of t-power zero, which are then mapped through
    the ordinary images of the basis rows.
    """
    images = basis_images(table)
    out = []
    for i, expansion in enumerate(expansions, 1):
        if not expansion.integral:
            raise IntegralityError(
                f"Chern class {i} has a non-integral expansion: "
                f"{expansion.coefficients}"
            )
        elem = table.zero()
        for (coeff, power), image in zip(expansion.terms, images):
            if power == 0 and coeff != 0:
                elem = elem + int(coeff) * image
        out.append(elem)
    return out
