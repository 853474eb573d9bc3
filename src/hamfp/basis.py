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

Expansion of an arbitrary class in this basis is forward substitution down
the moment order: the diagonal entries are nonzero weight products, and the
middle row n/2 is solved before row n/2+1, matching the declared order of
the middle pair even when their moment values tie.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateGammaError, ExpansionError
from .fpdata import FixedPointData, morse_pattern, point_invariants
from .localize import EquivClass


@dataclass(frozen=True)
class BasisRestrictions:
    """Rows are the basis classes, columns the fixed points.

    Row i is stored as an EquivClass of half degree i (lower half) or i-1
    (upper half).
    """

    n: int
    rows: tuple[EquivClass, ...]

    @property
    def half_degrees(self) -> tuple[int, ...]:
        return tuple(row.degree_half for row in self.rows)


@dataclass(frozen=True)
class Expansion:
    """Coefficients of a class in the basis: one (rational, t-power) pair per
    row, with cls = sum_i coeff_i * t^power_i * row_i.

    Rows whose degree exceeds the class degree carry coefficient 0 (their
    power is reported as 0). ``integral`` is True iff every coefficient is an
    integer.
    """

    terms: tuple[tuple[Fraction, int], ...]

    @property
    def integral(self) -> bool:
        return all(c.denominator == 1 for c, _ in self.terms)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(c for c, _ in self.terms)


def build_basis(data: FixedPointData) -> BasisRestrictions:
    """Evaluate the closed-form basis restrictions for the dataset."""
    n = data.n
    m = n + 2
    half = n // 2
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

    pattern = morse_pattern(n)
    rows = []
    for i in range(m):
        coeffs = [Fraction(0)] * m
        coeffs[i] = Fraction(inv[i].lambda_minus)
        if i <= half:
            for k in range(i + 1, m):
                value = Fraction(inv[i].lambda_minus)
                for j in range(i):
                    value *= Fraction(gammas[k] - gammas[j], gammas[i] - gammas[j])
                coeffs[k] = value
        else:
            for k in range(i + 1, m):
                value = Fraction(-inv[k].lambda_full, inv[i].lambda_plus)
                for j in range(i + 1, m):
                    if j != k:
                        value *= Fraction(
                            gammas[i] - gammas[j], gammas[k] - gammas[j]
                        )
                coeffs[k] = value
        rows.append(EquivClass(pattern[i], tuple(coeffs)))
    return BasisRestrictions(n, tuple(rows))


def express_in_basis(basis: BasisRestrictions, cls: EquivClass) -> Expansion:
    """Expand a homogeneous class in the basis by forward substitution.

    The class degree 2d must satisfy d <= n+1. Rows of half degree above d
    cannot contribute; their residuals must vanish, otherwise the input tuple
    is not the restriction of any class (ExpansionError).
    """
    n = basis.n
    m = n + 2
    d = cls.degree_half
    if d > n + 1:
        raise ValueError(f"degree {2 * d} exceeds the basis range {2 * (n + 1)}")
    if len(cls.coeffs) != m:
        raise ValueError("class does not match the basis point count")
    degrees = basis.half_degrees
    coeffs: list[Fraction] = []
    for k in range(m):
        residual = cls.coeffs[k]
        for i in range(k):
            residual -= coeffs[i] * basis.rows[i].coeffs[k]
        if degrees[k] <= d:
            coeffs.append(residual / basis.rows[k].coeffs[k])
        else:
            if residual != 0:
                raise ExpansionError(
                    f"degree-{2 * d} tuple is outside the basis span: residual "
                    f"{residual} at point {k}"
                )
            coeffs.append(Fraction(0))
    terms = tuple(
        (coeffs[k], d - degrees[k] if degrees[k] <= d else 0) for k in range(m)
    )
    return Expansion(terms)
