"""Integral cohomology ring of the oriented 2-plane Grassmannian, dim 2n.

The ring for even n has free additive basis 1, x, ..., x^(n/2-1) (x of
degree 2), y and z in the middle degree n, and g_k = x^k y for 1 <= k <= n/2
(top class g_{n/2}). The multiplicative relations are

    x^(n/2) = y + z,        x*y = x*z = g_1,       x*g_k = g_{k+1},
    n = 4m+2:  y^2 = z^2 = 0,        y*z = g_{n/2},
    n = 4m:    y^2 = z^2 = g_{n/2},  y*z = 0,

and every product of degree above 2n vanishes. Powers of x above n/2-1 are
not basis labels; they expand as x^(n/2) = y + z and x^(n/2+k) = 2 g_k.

No multiplication table is stored: the ring is its n + 2 basis elements
(``ring_make``). Each label is x^a * s with s one of 1, y or z (g_a is
x^a * y), and since x*y = x*z = g_1 the product of two labels depends only
on the exponent sum and the two factors s: one rule (``_label_product``)
gives it, and ``ring_mul`` extends it bilinearly. Each ``RingElement``
carries its n; every other function takes n itself.

The module also maps the localization basis rows to their ordinary images,
which turns equivariant Chern expansions into ordinary Chern classes, and
pairs two rows' images by the label product (``image_pairing``).
"""

from __future__ import annotations

from functools import cache
from operator import index
from typing import Sequence

# express_in_basis and chern_restriction are unused here;
# perfbench/tracing.py wraps them at this module.
from .basis import (  # noqa: F401
    BasisRestrictions,
    Expansion,
    express_chern,
    express_in_basis,
)
from .errors import IntegralityError
from .localize import chern_restriction  # noqa: F401
from .record import Record


class RingElement(Record):
    """Integer coefficient vector over the graded basis labels."""

    __slots__ = ("n", "coeffs")
    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _ring_n(self.n))
        object.__setattr__(self, "coeffs", tuple(map(index, self.coeffs)))
        if len(self.coeffs) != self.n + 2:
            raise ValueError("coefficient vector does not match the basis size")

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


def _ring_n(n: int) -> int:
    """n as an int: TypeError unless operator.index takes it, ValueError
    unless it is even and positive."""
    n = index(n)
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and positive, got {n}")
    return n


def ring_labels(n: int) -> tuple[str, ...]:
    """The n + 2 graded basis labels of the ring for n, one tuple per n."""
    return _labels(_ring_n(n))


@cache
def _labels(n: int) -> tuple[str, ...]:
    half = n // 2
    labels = ["1"]
    labels += ["x" if k == 1 else f"x^{k}" for k in range(1, half)]
    labels += ["y", "z"]
    labels += [f"g_{k}" for k in range(1, half + 1)]
    return tuple(labels)


def _index_g(n: int, k: int) -> int:
    return n // 2 + 1 + k


def _x_power_terms(n: int, k: int) -> list[tuple[int, int]]:
    """x^k as (label index, coefficient) pairs, for k >= 0: x^k below n/2,
    y + z at n/2, 2 g_(k-n/2) up to n, and nothing above."""
    half = n // 2
    if k < half:
        return [(k, 1)]
    if k == half:
        return [(half, 1), (half + 1, 1)]
    if k <= n:
        return [(_index_g(n, k - half), 2)]
    return []


def x_power(n: int, k: int) -> RingElement:
    """The element x^k of the ring for n over the basis labels (0 for k > n)."""
    n = _ring_n(n)
    if k < 0:
        raise ValueError("negative power")
    coeffs = [0] * (n + 2)
    for index, coeff in _x_power_terms(n, k):
        coeffs[index] = coeff
    return RingElement(n, tuple(coeffs))


def _label_product(n: int, i: int, j: int) -> list[tuple[int, int]]:
    """Product of basis labels i and j as (label index, coefficient) pairs.

    Each label is x^a * s, with s the index of its factor 1 (index 0), y or z:
    x^a below n/2 is (a, 0), y and z are (0, y) and (0, z), and g_a is (a, y).
    """
    half = y = n // 2

    def split(k: int) -> tuple[int, int]:
        if k < y:
            return k, 0
        if k <= y + 1:
            return 0, k
        return k - y - 1, y

    (a, s), (b, t) = split(i), split(j)
    e = a + b
    if not s and not t:
        return _x_power_terms(n, e)
    if not s or not t:
        if e == 0:
            return [(s or t, 1)]
        return [(_index_g(n, e), 1)] if e <= half else []
    # two middle factors make the top class (y^2 = z^2 for n = 4m, y*z for
    # n = 4m+2) or 0; any power of x on top of them exceeds degree 2n
    if e == 0 and (s == t) == (n % 4 == 0):
        return [(_index_g(n, half), 1)]
    return []


def ring_make(n: int) -> tuple[RingElement, ...]:
    """The ring for even n >= 2 as its n + 2 basis elements: element i has
    coefficient 1 at label i of ``ring_labels(n)``."""
    n = _ring_n(n)
    return tuple(
        RingElement(n, tuple(int(i == j) for j in range(n + 2))) for i in range(n + 2)
    )


def ring_mul(a: RingElement, b: RingElement) -> RingElement:
    """Bilinear extension of the label product; degrees above 2n vanish.
    Elements of the rings for different n raise ValueError."""
    n = a.n
    if b.n != n:
        raise ValueError(f"cannot multiply elements of the rings for n={n} and n={b.n}")
    out = [0] * (n + 2)
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for j, cb in enumerate(b.coeffs):
            if cb == 0:
                continue
            for idx, c in _label_product(n, i, j):
                out[idx] += ca * cb * c
    return RingElement(n, tuple(out))


def ring_integral(elem: RingElement) -> int:
    """Coefficient of the top class g_{n/2}: the integral over the manifold."""
    return elem.coeffs[_index_g(elem.n, elem.n // 2)]


def betti(n: int) -> list[int]:
    """Ranks of the even cohomology groups H^0, H^2, ..., H^2n.

    All ranks are 1 except rank 2 in the middle degree n; odd degrees vanish.
    """
    n = _ring_n(n)
    ranks = [1] * (n + 1)
    ranks[n // 2] = 2
    return ranks


def _image_coeffs(coeffs: Sequence[int]) -> list[int]:
    """Coefficients over the labels of the ordinary image of the basis rows
    with these coefficients. Row j lands on label j (x^j, z, or
    g_(j-1-n/2) = (1/2) x^(j-1)) except the middle row n/2, whose image
    x^(n/2) = y + z adds its coefficient to z; the y/z choice is immaterial,
    as every relation is symmetric in y and z."""
    out = list(coeffs)
    half = (len(out) - 2) // 2
    out[half + 1] += out[half]
    return out


def _row_image(coeffs: Sequence[int]) -> RingElement:
    """Ordinary image of the basis rows with these coefficients."""
    return RingElement(_ring_n(len(coeffs) - 2), tuple(_image_coeffs(coeffs)))


@cache
def _image_terms(n: int, j: int) -> tuple[tuple[int, int], ...]:
    """The ordinary image of basis row j as (label index, coefficient) pairs."""
    unit = [int(k == j) for k in range(n + 2)]
    return tuple((k, c) for k, c in enumerate(_image_coeffs(unit)) if c)


def basis_images(ring: Sequence[RingElement]) -> tuple[RingElement, ...]:
    """Ordinary image of each localization basis row, given the ring's basis
    ``ring_make(n)``."""
    return tuple(_row_image(e.coeffs) for e in ring)


def image_pairing(n: int, i: int, j: int) -> int:
    """The integral of the product of the ordinary images of localization
    basis rows i and j: ``ring_integral(ring_mul(images[i], images[j]))``
    with ``images = basis_images(ring_make(n))``, read off the label
    product without building a ``RingElement``. Rows outside 0..n+1 raise
    ValueError."""
    n = _ring_n(n)
    if not (0 <= i < n + 2 and 0 <= j < n + 2):
        raise ValueError(f"rows {i} and {j} are not both in 0..{n + 1}")
    top = _index_g(n, n // 2)
    return sum(
        ca * cb * c
        for a, ca in _image_terms(n, i)
        for b, cb in _image_terms(n, j)
        for label, c in _label_product(n, a, b)
        if label == top
    )


def ordinary_chern(basis: BasisRestrictions) -> list[RingElement]:
    """Ordinary Chern classes c_1(M)..c_n(M) of the basis's dataset.

    Each equivariant Chern class is expanded in the localization basis and
    mapped by ``ordinary_from_expansions``.
    """
    return ordinary_from_expansions(list(express_chern(basis)))


def ordinary_from_expansions(expansions: Sequence[Expansion]) -> list[RingElement]:
    """Ordinary classes of c_1..c_n from their expansions in the basis.

    Each expansion must be integral (IntegralityError otherwise). Setting t
    to 0 keeps only the terms of t-power zero, whose coefficients are then
    mapped to the ring by ``_row_image``.
    """
    out = []
    for i, expansion in enumerate(expansions, 1):
        if not expansion.integral:
            raise IntegralityError(
                f"Chern class {i} has a non-integral expansion: "
                f"{expansion.coefficients}"
            )
        out.append(_row_image([int(c) if p == 0 else 0 for c, p in expansion.terms]))
    return out
