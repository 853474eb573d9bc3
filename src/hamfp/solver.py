"""Classify weight data from moment values alone, by exhaustive search.

Under the hypothesis that the manifold has the cohomology ring of the
oriented 2-plane Grassmannian, the product of the negative (and of the
positive) weights at every fixed point is a closed-form expression in the
moment values (``predicted_products``); that hypothesis enters the solver
exclusively through these formulas. The search then enumerates every weight
assignment compatible with

* a magnitude bound (default: the full moment spread, which no weight can
  exceed, since each weight divides the moment gap it climbs along);
* divisibility: each weight at a point divides some nonzero moment gap from
  that point (the arithmetic consequence of isotropy spheres);
* the forced pattern of negative-weight counts;
* the predicted per-point products;
* in dimension above 4, where the second cohomology has rank one, affinity
  of the weight sums in the moment values (the pairwise difference ratio
  that expresses the first Chern class);
* negation closure of the global weight multiset;
* full validation, plus exact vanishing of the localization sum of every
  monomial in the equivariant symplectic class and the equivariant Chern
  classes below the top degree. Products and negation closure alone are not
  sufficient: there are assignments sharing all per-point products with the
  true data that only the Chern-class sums reject.

Search branches are independent, and results are merged in canonical
(lexicographic) order, so the output does not depend on evaluation order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import DataError, DegenerateProfileError, InconsistentProfileError
from .fpdata import (
    FixedPoint,
    FixedPointData,
    morse_pattern,
    standard_weights,
    validate,
)
# Only localization_sums is used; perfbench/tracing.py wraps the others here.
from .localize import (  # noqa: F401
    chern_restriction,
    integrate,
    localization_sums,
    symplectic_class,
)


@dataclass(frozen=True)
class MomentProfile:
    """Integer moment values only: nondecreasing, strict except possibly at
    the middle pair."""

    n: int
    phi: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", tuple(int(v) for v in self.phi))
        if self.n < 2 or self.n % 2 != 0:
            raise DataError(f"n must be even and positive, got {self.n}")
        if len(self.phi) != self.n + 2:
            raise DataError(
                f"expected {self.n + 2} moment values, got {len(self.phi)}"
            )
        half = self.n // 2
        for i in range(len(self.phi) - 1):
            a, b = self.phi[i], self.phi[i + 1]
            if i == half:
                if not a <= b:
                    raise DataError(f"phi[{i}]={a} > phi[{i + 1}]={b}")
            elif not a < b:
                raise DataError(
                    f"phi[{i}]={a} >= phi[{i + 1}]={b} away from the middle pair"
                )

    @property
    def spread(self) -> int:
        return self.phi[-1] - self.phi[0]


@dataclass(frozen=True)
class ClassificationVerdict:
    candidates: tuple[FixedPointData, ...]
    is_unique_standard: bool


def _exact_quotient(num: int, den: int, context: str) -> int:
    if den == 0:
        raise DegenerateProfileError(f"vanishing denominator in {context}")
    q, r = divmod(num, den)
    if r != 0:
        raise InconsistentProfileError(
            f"{context} predicts the fractional product {num}/{den}"
        )
    return q


def predicted_products(profile: MomentProfile) -> list[tuple[int, int]]:
    """Predicted (negative product, positive product) at every point.

    Lower-half negative products and upper-half positive products are plain
    products of moment gaps; the remaining products divide by the summed gap
    to the middle pair, which requires dimension above 4. For n = 2 all four
    points are instead covered by the two-gap weight sets of the
    4-dimensional case.
    """
    n = profile.n
    phi = profile.phi
    m = n + 2
    half = n // 2

    if n == 2:
        return [
            (1, (phi[1] - phi[0]) * (phi[2] - phi[0])),
            (phi[0] - phi[1], phi[3] - phi[1]),
            (phi[0] - phi[2], phi[3] - phi[2]),
            ((phi[1] - phi[3]) * (phi[2] - phi[3]), 1),
        ]

    out = []
    for i in range(m):
        middle_gap = (phi[half] - phi[i]) + (phi[half + 1] - phi[i])
        if i <= half:
            neg = 1
            for j in range(i):
                neg *= phi[j] - phi[i]
        elif i == half + 1:
            neg = 1
            for j in range(half):
                neg *= phi[j] - phi[i]
        else:
            num = 1
            for j in range(i):
                num *= phi[j] - phi[i]
            neg = _exact_quotient(num, middle_gap, f"negative product at point {i}")
        if i >= half + 1:
            pos = 1
            for j in range(i + 1, m):
                pos *= phi[j] - phi[i]
        elif i == half:
            pos = 1
            for j in range(half + 2, m):
                pos *= phi[j] - phi[i]
        else:
            num = 1
            for j in range(i + 1, m):
                num *= phi[j] - phi[i]
            pos = _exact_quotient(num, middle_gap, f"positive product at point {i}")
        out.append((neg, pos))
    return out


def check_symmetry(profile: MomentProfile) -> bool:
    """Whether the moment values are symmetric about the middle pair:
    phi_i - phi_{n/2} = phi_{n/2+1} - phi_{n+1-i} for the lower half."""
    half = profile.n // 2
    phi = profile.phi
    return all(
        phi[i] - phi[half] == phi[half + 1] - phi[profile.n + 1 - i]
        for i in range(half)
    )


def _factorizations(
    target: int, count: int, allowed: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Nondecreasing count-tuples over the allowed positive values with the
    given product (target >= 1)."""
    results: list[tuple[int, ...]] = []

    def extend(start: int, remaining: int, chosen: list[int]) -> None:
        if len(chosen) == count:
            if remaining == 1:
                results.append(tuple(chosen))
            return
        for idx in range(start, len(allowed)):
            v = allowed[idx]
            if v > remaining:
                break
            if remaining % v == 0:
                chosen.append(v)
                extend(idx, remaining // v, chosen)
                chosen.pop()

    if count == 0:
        return [()] if target == 1 else []
    if target < 1:
        return []
    extend(0, target, [])
    return results


def _point_options(
    lam: int, total: int, neg_target: int, pos_target: int, allowed: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """All sorted weight tuples at one point: lam negatives with the given
    product, the rest positives with theirs."""
    sign = -1 if lam % 2 else 1
    if neg_target * sign < 0:
        return []
    neg_parts = _factorizations(abs(neg_target), lam, allowed)
    if pos_target < 1:
        return []
    pos_parts = _factorizations(pos_target, total - lam, allowed)
    options = []
    for neg in neg_parts:
        negs = tuple(sorted(-v for v in neg))
        for pos in pos_parts:
            options.append(negs + pos)
    return sorted(options)


def _closure_join(
    options: list[list[tuple[int, ...]]],
) -> list[tuple[tuple[int, ...], ...]]:
    """Meet in the middle on negation closure.

    Enumerates both halves of the point list, keys each partial assignment by
    its imbalance signature (count(w) - count(-w) per magnitude), and joins
    opposite signatures.
    """
    m = len(options)
    lower = _half_assignments(options[: m // 2])
    upper: dict[tuple, list[tuple[tuple[int, ...], ...]]] = {}
    for signature, choice in _half_assignments(options[m // 2 :]):
        upper.setdefault(signature, []).append(choice)
    joined: list[tuple[tuple[int, ...], ...]] = []
    for signature, choice in lower:
        needed = tuple((v, -d) for v, d in signature)
        for completion in upper.get(needed, ()):
            joined.append(choice + completion)
    return joined


def _half_assignments(
    option_lists: list[list[tuple[int, ...]]],
) -> list[tuple[tuple, tuple[tuple[int, ...], ...]]]:
    """Every choice of one option per point, with its imbalance signature.

    The signature lists (magnitude, count(+v) - count(-v)) for the magnitudes
    that do not balance; two half-assignments glue to a negation-closed
    multiset exactly when their signatures are opposite.
    """
    partial: list[tuple[Counter[int], tuple[tuple[int, ...], ...]]] = [
        (Counter(), ())
    ]
    for opts in option_lists:
        step = []
        for counts, choice in partial:
            for opt in opts:
                merged = counts.copy()
                merged.update(opt)
                step.append((merged, choice + (opt,)))
        partial = step
    out = []
    for counts, choice in partial:
        signature = tuple(
            sorted(
                (v, counts[v] - counts[-v])
                for v in {abs(w) for w in counts}
                if counts[v] != counts[-v]
            )
        )
        out.append((signature, choice))
    return out


def localization_consistent(data: FixedPointData) -> bool:
    """Exact vanishing of every localization sum below the top degree.

    Checks all monomials u^a * c_{i_1} ... c_{i_k} of total degree below n,
    where u is the equivariant symplectic class and c_i the equivariant Chern
    classes, in order of degree, and stops at the first nonzero sum: it
    proves the data comes from no manifold.
    """
    sums = localization_sums(data, range(data.n), with_u=True, with_chern=True)
    return not any(total for _, _, total in sums)


def enumerate_candidates(
    profile: MomentProfile, weight_bound: int | None = None
) -> list[FixedPointData]:
    """Exhaustively list the weight assignments passing every filter.

    The output is deterministic (lexicographic in the per-point sorted weight
    tuples) and may be empty. A profile whose predicted products are
    fractional admits no integer weights at all and yields the empty list.
    """
    n = profile.n
    m = n + 2
    phi = profile.phi
    bound = profile.spread if weight_bound is None else int(weight_bound)
    try:
        products = predicted_products(profile)
    except InconsistentProfileError:
        return []

    pattern = morse_pattern(n)
    options: list[list[tuple[int, ...]]] = []
    for i in range(m):
        gaps = {abs(phi[j] - phi[i]) for j in range(m) if phi[j] != phi[i]}
        allowed = tuple(
            w for w in range(1, bound + 1) if any(g % w == 0 for g in gaps)
        )
        neg_target, pos_target = products[i]
        options.append(_point_options(pattern[i], n, neg_target, pos_target, allowed))
    if any(not opts for opts in options):
        return []

    if n == 2:
        found = _closure_join(options)
    else:
        # In dimension above 4 the second cohomology has rank one, so the
        # weight sums must be an affine function of the moment values (the
        # first Chern class is a single multiple of the symplectic class).
        # Enumerate the affine line through two anchor points and keep only
        # options whose weight sums land on it.
        pairs = [
            (i, j)
            for i in range(m)
            for j in range(i + 1, m)
            if phi[i] != phi[j]
        ]
        a, b = min(pairs, key=lambda p: len(options[p[0]]) * len(options[p[1]]))
        found = []
        for opt_a in options[a]:
            for opt_b in options[b]:
                slope = Fraction(sum(opt_b) - sum(opt_a), phi[b] - phi[a])
                offset = Fraction(sum(opt_a)) - slope * phi[a]
                filtered: list[list[tuple[int, ...]]] = []
                for i in range(m):
                    if i == a:
                        filtered.append([opt_a])
                    elif i == b:
                        filtered.append([opt_b])
                    else:
                        wanted = offset + slope * phi[i]
                        filtered.append(
                            [o for o in options[i] if sum(o) == wanted]
                        )
                    if not filtered[-1]:
                        break
                else:
                    found += _closure_join(filtered)

    candidates = []
    for assignment in sorted(found):
        data = FixedPointData(
            n,
            tuple(FixedPoint(phi[i], assignment[i]) for i in range(m)),
        )
        if validate(data).passed and localization_consistent(data):
            candidates.append(data)
    return candidates


def classify(
    profile: MomentProfile, weight_bound: int | None = None
) -> ClassificationVerdict:
    """Wrap the enumeration with the standard-data test: the verdict is
    unique-standard iff exactly one assignment survives and its weights are
    the standard moment gaps at every point."""
    candidates = tuple(enumerate_candidates(profile, weight_bound))
    unique = False
    if len(candidates) == 1:
        expected = [
            tuple(sorted(standard_weights(profile.phi, i)))
            for i in range(profile.n + 2)
        ]
        actual = [tuple(sorted(p.weights)) for p in candidates[0].points]
        unique = actual == expected
    return ClassificationVerdict(candidates, unique)
