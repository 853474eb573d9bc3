"""Fixed-point data of Hamiltonian circle actions with n+2 isolated points.

A dataset records, for each of the n+2 fixed points of a Hamiltonian circle
action on a compact 2n-dimensional symplectic manifold, its integer moment
value and the multiset of n nonzero integer weights of the isotropy
representation; a moment profile, the classifier's input, records the moment
values alone, under the same size and order rules. The module provides the
standard dataset carried by the oriented 2-plane Grassmannian, and a
validator for the arithmetic conditions every genuine dataset must satisfy:

* moment values nondecreasing, strict except possibly at the middle pair;
* Morse indices (twice the negative-weight count) follow the forced pattern
  0, 2, ..., n, n, ..., 2n;
* the multiset of all weights is closed under negation;
* the index of each point is bounded by the count of points strictly below;
* the localization sum of the unit class vanishes.

All types are immutable and every function is pure, so everything here is
safe to call concurrently.
"""

from __future__ import annotations

from collections import Counter
from math import prod
from typing import Sequence

from .errors import DataError, InvalidGeneratorError
from .exactnum import exact_fraction, exact_int, shares
from .record import Record


def _check_size(n: int, count: int, what: str) -> None:
    """Datasets and profiles alike: n even and positive, n + 2 entries."""
    if n < 2 or n % 2 != 0:
        raise DataError(f"n must be even and positive, got {n}")
    if count != n + 2:
        raise DataError(f"expected {n + 2} {what}, got {count}")


def _order_breaks(phis: Sequence[int]) -> list[tuple[int, int]]:
    """Each step (i, strict) with phis[i + 1] < phis[i] + strict: every step
    must rise (strict = 1) but the middle one, i = n/2, which may tie."""
    half = len(phis) // 2 - 1
    steps = [(i, int(i != half)) for i in range(len(phis) - 1)]
    return [(i, strict) for i, strict in steps if phis[i + 1] < phis[i] + strict]


def _describe_break(phis: Sequence[int], i: int, strict: int) -> str:
    relation = ">=" if strict else ">"
    return f"phi[{i}]={phis[i]} {relation} phi[{i + 1}]={phis[i + 1]}"


class FixedPoint(Record):
    """One isolated fixed point: moment value and weight multiset."""

    __slots__ = ("phi", "weights")
    phi: int
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", exact_int(self.phi, "FixedPoint.phi"))
        object.__setattr__(
            self,
            "weights",
            tuple([exact_int(w, "FixedPoint.weights") for w in self.weights]),
        )
        if any(w == 0 for w in self.weights):
            raise DataError(f"zero weight at moment value {self.phi}")

    @property
    def negative_count(self) -> int:
        """Number of negative weights; half the Morse index."""
        return sum(1 for w in self.weights if w < 0)


class FixedPointData(Record):
    """n plus the ordered list of n+2 fixed points.

    Construction checks only structure (n even and positive, point and weight
    counts, nonzero weights); the semantic conditions are reported by
    ``validate`` so that bad datasets can be inspected rather than rejected.
    """

    __slots__ = ("n", "points")
    n: int
    points: tuple[FixedPoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", exact_int(self.n, "FixedPointData.n"))
        object.__setattr__(self, "points", tuple(self.points))
        _check_size(self.n, len(self.points), "fixed points")
        for p in self.points:
            if len(p.weights) != self.n:
                raise DataError(
                    f"point at phi={p.phi} has {len(p.weights)} weights, expected {self.n}"
                )

    @property
    def phis(self) -> tuple[int, ...]:
        return tuple(p.phi for p in self.points)

    def all_weights(self) -> Counter[int]:
        """Multiset of all n(n+2) weights."""
        counts: Counter[int] = Counter()
        for p in self.points:
            counts.update(p.weights)
        return counts


class MomentProfile(Record):
    """Integer moment values only: nondecreasing, strict except possibly at
    the middle pair."""

    __slots__ = ("n", "phi")
    n: int
    phi: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", exact_int(self.n, "MomentProfile.n"))
        object.__setattr__(
            self, "phi", tuple([exact_int(v, "MomentProfile.phi") for v in self.phi])
        )
        _check_size(self.n, len(self.phi), "moment values")
        if breaks := _order_breaks(self.phi):
            i, strict = breaks[0]
            where = " away from the middle pair" if strict else ""
            raise DataError(_describe_break(self.phi, i, strict) + where)

    @property
    def spread(self) -> int:
        return self.phi[-1] - self.phi[0]


class PointInvariants(Record):
    """Weight sum and products at one fixed point.

    gamma is the sum of the weights, lambda_full their product, and
    lambda_minus / lambda_plus the products over the negative / positive
    weights (empty products are 1).
    """

    __slots__ = ("gamma", "lambda_full", "lambda_minus", "lambda_plus")
    gamma: int
    lambda_full: int
    lambda_minus: int
    lambda_plus: int


class CheckResult(Record):
    __slots__ = ("name", "passed", "detail")
    name: str
    passed: bool
    detail: str


class ValidationReport(Record):
    """One entry per validation check, in a fixed order."""

    __slots__ = ("checks",)
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def morse_pattern(n: int) -> tuple[int, ...]:
    """Forced negative-weight counts: i for i <= n/2, i-1 above."""
    half = n // 2
    return tuple(i if i <= half else i - 1 for i in range(n + 2))


def standard_weights(phis: Sequence[int], i: int) -> tuple[int, ...]:
    """Weights of the standard action at point i: all moment gaps from point i
    except the one to its antipode n+1-i."""
    m = len(phis)
    return tuple(phis[j] - phis[i] for j in range(m) if j != i and j != m - 1 - i)


def make_standard_g2(b: Sequence[int]) -> FixedPointData:
    """Standard dataset of the oriented 2-plane Grassmannian in dimension 2n.

    The circle acts on C^(n/2+1) with pairwise distinct integer exponents b;
    the induced action on oriented 2-planes has n+2 fixed points with moment
    values the sorted multiset {-b_i} union {b_i} and weights given by
    ``standard_weights``. Exponents with b_i = -b_j (j != i) are rejected:
    they would collide moment values away from the middle pair and produce
    zero weights. The output is order-insensitive in b and passes ``validate``.
    """
    values = [exact_int(x, "make_standard_g2.b") for x in b]
    if len(values) < 2:
        raise InvalidGeneratorError("need at least two exponents")
    if len(set(values)) != len(values):
        raise InvalidGeneratorError(f"exponents must be pairwise distinct: {values}")
    for i, x in enumerate(values):
        for y in values[i + 1 :]:
            if x + y == 0:
                raise InvalidGeneratorError(
                    f"opposite exponents {x} and {y} collide moment values"
                )
    n = 2 * (len(values) - 1)
    phis = sorted([-x for x in values] + values)
    points = tuple(
        FixedPoint(phis[i], standard_weights(phis, i)) for i in range(n + 2)
    )
    return FixedPointData(n, points)


def point_invariants(data: FixedPointData, i: int) -> PointInvariants:
    """Weight sum and products at point i (empty products are 1)."""
    if not 0 <= i <= data.n + 1:
        raise IndexError(f"point index {i} out of range 0..{data.n + 1}")
    gamma = 0
    minus = 1
    plus = 1
    for w in data.points[i].weights:
        gamma += w
        if w < 0:
            minus *= w
        else:
            plus *= w
    return PointInvariants(gamma, minus * plus, minus, plus)


def _check_phi_order(data: FixedPointData) -> CheckResult:
    phis = data.phis
    bad = [_describe_break(phis, i, strict) for i, strict in _order_breaks(phis)]
    if bad:
        return CheckResult("phi-order", False, "; ".join(bad))
    return CheckResult(
        "phi-order",
        True,
        f"moment values {phis} strictly increasing away from the middle pair",
    )


def _check_morse_pattern(n: int, actual: tuple[int, ...]) -> CheckResult:
    expected = morse_pattern(n)
    if actual != expected:
        return CheckResult(
            "morse-index",
            False,
            f"negative-weight counts {actual} differ from required {expected}",
        )
    return CheckResult(
        "morse-index", True, f"negative-weight counts follow the pattern {expected}"
    )


def _check_negation_closure(data: FixedPointData) -> CheckResult:
    counts = data.all_weights()
    bad = sorted(w for w in counts if counts[w] != counts[-w])
    if bad:
        return CheckResult(
            "negation-closure",
            False,
            f"unbalanced weights {bad} (count(w) != count(-w))",
        )
    return CheckResult(
        "negation-closure", True, "weight multiset equals its own negation"
    )


def _check_index_bound(phis: Sequence[int], indices: Sequence[int]) -> CheckResult:
    # the points strictly below a value are those sorted before its first
    # occurrence, in any order of the moment values
    below: dict[int, int] = {}
    for k, phi in enumerate(sorted(phis)):
        below.setdefault(phi, k)
    bad = [
        f"point {i}: index {index} exceeds {below[phi]} points below"
        for i, (phi, index) in enumerate(zip(phis, indices))
        if index > below[phi]
    ]
    if bad:
        return CheckResult("index-bound", False, "; ".join(bad))
    return CheckResult(
        "index-bound", True, "each index is bounded by the count of points below"
    )


def _check_unit_localization(data: FixedPointData) -> CheckResult:
    # the sum of 1 / Lambda_P, in integers over L = lcm |Lambda_P|
    common, scales = shares([prod(p.weights) for p in data.points])
    if total := sum(scales):
        return CheckResult(
            "localization-of-one",
            False,
            f"sum of reciprocal weight products is {exact_fraction(total, common)}, "
            "expected 0",
        )
    return CheckResult(
        "localization-of-one", True, "sum of reciprocal weight products vanishes"
    )


def validate(data: FixedPointData) -> ValidationReport:
    """Run every dataset check and report each outcome individually.

    Failures are report entries rather than exceptions so that a single pass
    surfaces all problems at once.
    """
    indices = tuple(p.negative_count for p in data.points)
    return ValidationReport(
        (
            _check_phi_order(data),
            _check_morse_pattern(data.n, indices),
            _check_negation_closure(data),
            _check_index_bound(data.phis, indices),
            _check_unit_localization(data),
        )
    )
