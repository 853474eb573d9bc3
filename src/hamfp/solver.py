"""Classify weight data from moment values alone, by exhaustive search.

Under the hypothesis that the manifold has the cohomology ring of the
oriented 2-plane Grassmannian, the product of the negative (and of the
positive) weights at every fixed point is a closed-form expression in the
moment values (``predicted_products``); that hypothesis enters the solver
exclusively through these formulas. At n = 2 the four-gap products of the
4-dimensional case also fix the moment gaps, so they fix the class of the
symplectic form as well as the ring: the Hirzebruch surface Sigma_2 has the
ring of the oriented Grassmannian of 2-planes in R^4, yet its circle action
with moment values (0, 3, 3, 4) and weights (1, 3), (-1, 1), (-3, 1),
(-1, -1) gets no candidate, since the gaps predict the product 9 at P0 and
its weights give 3.
The search then enumerates every weight assignment compatible with

* divisibility: each weight at a point divides some nonzero moment gap from
  that point (the arithmetic consequence of isotropy spheres), so the
  allowed weights are the divisors of the gaps, found by trial division,
  and a profile whose scan would pass MAX_TRIAL_DIVISIONS is refused. No
  divisor exceeds the moment spread, so the gaps are the only bound;
* the forced pattern of negative-weight counts;
* the predicted per-point products, searched as factorizations over the
  allowed values that divide the product, which cut a branch once the
  product still to place exceeds top**left or falls below v**left (left
  parts to choose, v the next part, top the largest such value) and take
  the last part as the product still to place, if it is allowed. A
  factorization search that would visit more than MAX_FACTORIZATION_NODES
  nodes is refused. A profile symmetric about the middle pair poses the
  same problems at points i and n + 1 - i, so each distinct problem is
  solved once per ``enumerate_candidates`` call, and nothing is kept between
  calls;
* in dimension above 4, where the second cohomology has rank one, affinity
  of the weight sums in the moment values (the pairwise difference ratio
  that expresses the first Chern class);
* exact vanishing of the localization sum of c_k for 0 < k < n. Every option
  at a point P has the same weight product L_P, so over the common
  denominator L = lcm |L_P| it adds the integer e_k(weights) * (L / L_P) to
  the numerator of the integral of c_k. A meet in the middle joins the two
  halves of the point list on opposite sums of these numerators. Each
  option's numerators are packed into one int, in a base wide enough that
  sums of packed keys are the packed sums, so a half's key sums are int
  additions. Matches are found by intersecting the two halves' sets of key
  sums before any assignment is built, and only the upper choices whose
  sums match are held, while the lower half is streamed past them. Each
  option's elementary symmetric polynomials are expanded once per call and
  serve its keys in every join and the final filter;
* full validation, which checks negation closure of the global weight
  multiset, plus exact vanishing of the localization sum of every monomial
  in the equivariant symplectic class and the equivariant Chern classes
  below the top degree (``localize.localization_consistent``, through the
  search's memoized expansions). Products and negation closure alone are
  not sufficient: there are assignments sharing all per-point products with
  the true data that only the Chern-class sums reject.

Search branches are independent, and no stage orders its options: the
survivors are sorted once, lexicographically by their per-point weight
tuples, so the output does not depend on evaluation order.
The input type ``MomentProfile`` lives in ``fpdata``, beside datasets.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import isqrt, prod

from .errors import InconsistentProfileError, SearchTooLargeError
from .exactnum import shares
from .fpdata import (
    FixedPoint,
    FixedPointData,
    MomentProfile,
    morse_pattern,
    standard_weights,
    validate,
)
# chern_restriction, integrate and symplectic_class are unused here;
# perfbench/tracing.py wraps them at this module.
from .localize import (  # noqa: F401
    Expand,
    chern_restriction,
    expansion_memo,
    integrate,
    localization_consistent,
    symplectic_class,
)
from .record import Record

# Most assignments one half of the meet-in-the-middle join may build.
MAX_HALF_ASSIGNMENTS = 10**6
# Most nodes one factorization search may visit. One search on the
# classify-std and classify-sweep profiles at n = 8 visits at most 18,743;
# the minimal profile at n = 20 passes the limit after about 1 s in-process.
MAX_FACTORIZATION_NODES = 10**6
# Most trial divisions the allowed-weight scan may make over all points:
# about 1.5 s in-process on a 2-core host. The standard n = 2 profile with
# exponents (10^12, 1) needs 10,828,424.
MAX_TRIAL_DIVISIONS = 2 * 10**7


class ClassificationVerdict(Record):
    __slots__ = ("candidates", "is_unique_standard")
    candidates: tuple[FixedPointData, ...]
    is_unique_standard: bool


def _exact_quotient(num: int, den: int, context: str) -> int:
    q, r = divmod(num, den)
    if r != 0:
        raise InconsistentProfileError(
            f"{context} predicts the fractional product {num}/{den}"
        )
    return q


def predicted_products(profile: MomentProfile) -> list[tuple[int, int]]:
    """Predicted (negative product, positive product) at every point.

    For n > 2 one rule covers every point i: the negative product is the
    product of the gaps phi_j - phi_i over j < i, and the positive product
    the product over j > i, each leaving out the gap inside the middle pair
    (j = n/2 + 1 at i = n/2, j = n/2 at i = n/2 + 1). Away from the middle
    pair, the side that reaches across it is divided by the summed gap
    (phi_{n/2} - phi_i) + (phi_{n/2+1} - phi_i): the positive product below
    n/2, the negative product above n/2 + 1. The profile is strict away from
    the middle pair, so that sum is never zero. For n = 2, where the second
    cohomology has rank two, the four points take the two-gap weight sets of
    the 4-dimensional case instead.
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
        partner = {half: half + 1, half + 1: half}.get(i)
        below = prod([phi[j] - phi[i] for j in range(i) if j != partner])
        above = prod([phi[j] - phi[i] for j in range(i + 1, m) if j != partner])
        middle_gap = (phi[half] - phi[i]) + (phi[half + 1] - phi[i])
        if i > half + 1:
            below = _exact_quotient(below, middle_gap, f"negative product at point {i}")
        if i < half:
            above = _exact_quotient(above, middle_gap, f"positive product at point {i}")
        out.append((below, above))
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
    given product (target >= 1). A search that would visit more than
    MAX_FACTORIZATION_NODES nodes raises SearchTooLargeError."""
    if count == 0:
        return [()] if target == 1 else []
    # every part divides the target, and the last part is what remains
    parts = [v for v in allowed if target % v == 0]
    members = set(parts)
    if count == 1:
        return [(target,)] if target in members else []
    top = parts[-1] if parts else 0
    results: list[tuple[int, ...]] = []
    nodes = 0

    def extend(start: int, remaining: int, chosen: list[int]) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > MAX_FACTORIZATION_NODES:
            raise SearchTooLargeError(
                f"the factorization of {target} into {count} weights would "
                f"visit more than the limit of {MAX_FACTORIZATION_NODES} nodes"
            )
        # each of the left parts is at least v, and the parts after v are at
        # most top each
        left = count - len(chosen)
        cap = top ** (left - 1)
        for idx in range(start, len(parts)):
            v = parts[idx]
            if v**left > remaining:
                break
            if remaining % v:
                continue
            rest = remaining // v
            if left == 2:
                # v * v <= remaining, so the last part rest is at least v
                if rest in members:
                    results.append((*chosen, v, rest))
            elif rest <= cap:
                chosen.append(v)
                extend(idx, rest, chosen)
                chosen.pop()

    if target <= top**count:
        extend(0, target, [])
    return results


def _allowed_weights(gaps: set[int]) -> tuple[int, ...]:
    """The divisors of the positive gaps. Trial division runs up to sqrt(g)
    for each gap g: a divisor above sqrt(g) is the cofactor of one below it.
    """
    allowed: set[int] = set()
    for g in gaps:
        for d in range(1, isqrt(g) + 1):
            if g % d == 0:
                allowed.add(d)
                allowed.add(g // d)
    return tuple(sorted(allowed))


def _chern_key(option: tuple[int, ...], scale: int, expand: Expand) -> tuple[int, ...]:
    """e_1 .. e_{n-1} of the weights, times scale; expand gives e_0 .. e_n."""
    return tuple(e * scale for e in expand(option)[1:-1])


def _keyed_join(
    options: list[list[tuple[int, ...]]],
    scales: list[int],
    expand: Expand,
) -> list[tuple[tuple[int, ...], ...]]:
    """Every assignment whose Chern keys, _chern_key(option, scales[i],
    expand) at point i, sum to zero, by meeting in the middle: choices of
    one option per point in the two halves join on opposite key sums.

    Each key is packed into one int, in base 2B + 1 with B the sum over the
    points of the largest key entry in absolute value. Every entry of a sum
    of keys then lies in [-B, B], so sums of packed keys are the packed sums
    of keys, and a packed sum is zero exactly when every entry is. Both
    halves' key sums are formed as ints, the upper half's negated, and the
    keys they share are found by set intersection before any choice is
    built: without one the join returns at once, and otherwise only the upper
    choices with a shared key are held, in a dict from key to choices, while
    the lower half is streamed past it. Each half is counted before anything
    is built, and a half of more than MAX_HALF_ASSIGNMENTS raises
    SearchTooLargeError.
    """
    half = len(options) // 2
    for opts in (options[half:], options[:half]):
        size = prod(len(o) for o in opts)
        if size > MAX_HALF_ASSIGNMENTS:
            raise SearchTooLargeError(
                f"the search would build {size} assignments for one half of "
                f"the point list, more than the limit of {MAX_HALF_ASSIGNMENTS}"
            )
    keys = [
        [_chern_key(o, s, expand) for o in opts] for opts, s in zip(options, scales)
    ]
    bound = sum(max((abs(e) for k in ks for e in k), default=0) for ks in keys)
    base = 2 * bound + 1

    def pack(key: tuple[int, ...]) -> int:
        value = 0
        for e in reversed(key):
            value = value * base + e
        return value

    packed = [[pack(k) for k in ks] for ks in keys]

    def key_sums(rows: list[list[int]]) -> list[int]:
        # in the order of itertools.product over the same points
        sums = [0]
        for row in rows:
            sums = [a + b for a in sums for b in row]
        return sums

    lower = key_sums(packed[:half])
    upper = key_sums([[-p for p in row] for row in packed[half:]])
    shared = set(lower).intersection(upper)
    if not shared:
        return []
    completions: dict[int, list[tuple[tuple[int, ...], ...]]] = {}
    for key, choice in zip(upper, product(*options[half:])):
        if key in shared:
            completions.setdefault(key, []).append(choice)
    joined: list[tuple[tuple[int, ...], ...]] = []
    for key, choice in zip(lower, product(*options[:half])):
        if key in shared:
            for completion in completions[key]:
                joined.append(choice + completion)
    return joined


def enumerate_candidates(profile: MomentProfile) -> list[FixedPointData]:
    """Exhaustively list the weight assignments passing every filter.

    The output may be empty. Its one order guarantee: candidates are sorted
    lexicographically by their per-point weight tuples, each tuple sorted.
    The options of a point, the buckets, pairs and joins of each stage have
    no order; the candidates are sorted once, before the final filter. A
    profile whose predicted products are fractional admits no integer
    weights at all and yields the empty list. One whose allowed-weight scan
    would make more than MAX_TRIAL_DIVISIONS trial divisions raises
    SearchTooLargeError before the scan starts, and so does one whose
    factorization search or join passes its limit. Every weight the moment
    gaps allow is searched: each divides a gap, so none exceeds the spread.
    """
    n = profile.n
    m = n + 2
    phi = profile.phi
    try:
        products = predicted_products(profile)
    except InconsistentProfileError:
        return []

    pattern = morse_pattern(n)
    # Over L = lcm |L_i|, L_i = neg * pos, an option at point i adds
    # e_k * (L / L_i) to the numerator of the integral of c_k.
    _, scales = shares([neg * pos for neg, pos in products])
    gap_sets = [
        {abs(phi[j] - phi[i]) for j in range(m) if phi[j] != phi[i]} for i in range(m)
    ]
    divisions = sum(isqrt(g) for gaps in gap_sets for g in gaps)
    if divisions > MAX_TRIAL_DIVISIONS:
        raise SearchTooLargeError(
            f"the allowed-weight scan would make {divisions} trial divisions, "
            f"more than the limit of {MAX_TRIAL_DIVISIONS}"
        )
    # Points i and n + 1 - i of a symmetric profile pose the same problems.
    factorizations = cache(_factorizations)
    # An option reaches many joins, and the survivors the final filter: each
    # is expanded once per call.
    expand = expansion_memo()
    # At point i the negative product has the sign (-1)^pattern[i] and the
    # positive product is at least 1, so every option is pattern[i] negated
    # factors of |neg| and n - pattern[i] factors of pos.
    options: list[list[tuple[int, ...]]] = []
    for i, (neg, pos) in enumerate(products):
        allowed = _allowed_weights(gap_sets[i])
        neg_parts = factorizations(abs(neg), pattern[i], allowed)
        pos_parts = factorizations(pos, n - pattern[i], allowed)
        point_options = []
        for parts in neg_parts:
            # parts is nondecreasing, so its reversed negation is sorted
            negs = tuple([-v for v in reversed(parts)])
            for p in pos_parts:
                point_options.append(negs + p)
        options.append(point_options)
    if any(not opts for opts in options):
        return []

    if n == 2:
        found = _keyed_join(options, scales, expand)
    else:
        # In dimension above 4 the second cohomology has rank one, so the
        # weight sums must be an affine function of the moment values (the
        # first Chern class is a single multiple of the symplectic class).
        # Bucket each point's options by weight sum, run through the lines
        # fixed by the sums at two anchor points, and keep at every point
        # the bucket whose sum lies on the line.
        by_sum: list[dict[int, list[tuple[int, ...]]]] = [{} for _ in options]
        for buckets, opts in zip(by_sum, options):
            for opt in opts:
                buckets.setdefault(sum(opt), []).append(opt)
        pairs = [
            (i, j)
            for i in range(m)
            for j in range(i + 1, m)
            if phi[i] != phi[j]
        ]
        a, b = min(pairs, key=lambda p: len(by_sum[p[0]]) * len(by_sum[p[1]]))
        run = phi[b] - phi[a]
        found = []
        for sum_a, sum_b in product(by_sum[a], by_sum[b]):
            filtered: list[list[tuple[int, ...]]] = []
            for i in range(m):
                rise, r = divmod((sum_b - sum_a) * (phi[i] - phi[a]), run)
                filtered.append(by_sum[i].get(sum_a + rise, []) if r == 0 else [])
                if not filtered[-1]:
                    break
            else:
                found += _keyed_join(filtered, scales, expand)

    candidates = []
    for assignment in sorted(found):
        data = FixedPointData(
            n,
            tuple(FixedPoint(phi[i], assignment[i]) for i in range(m)),
        )
        if validate(data).passed and localization_consistent(data, expand):
            candidates.append(data)
    return candidates


def classify(profile: MomentProfile) -> ClassificationVerdict:
    """Wrap the enumeration with the standard-data test: the verdict is
    unique-standard iff exactly one assignment survives and its weights are
    the standard moment gaps at every point."""
    candidates = tuple(enumerate_candidates(profile))
    unique = False
    if len(candidates) == 1:
        expected = [
            tuple(sorted(standard_weights(profile.phi, i)))
            for i in range(profile.n + 2)
        ]
        actual = [tuple(sorted(p.weights)) for p in candidates[0].points]
        unique = actual == expected
    return ClassificationVerdict(candidates, unique)
