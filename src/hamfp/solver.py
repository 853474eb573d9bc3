"""Classify weight data from moment values alone, by exhaustive search.

Under the hypothesis that the manifold has the cohomology ring of the
oriented 2-plane Grassmannian, the product of the negative (and of the
positive) weights at every fixed point is a closed-form expression in the
moment values (``predicted_products``); that hypothesis enters the solver
exclusively through these formulas. At n = 2 it also requires the profile
to be symmetric about its middle pair, so it fixes the class of the
symplectic form as well as the ring: the Hirzebruch surface Sigma_2 has the
ring of the oriented Grassmannian of 2-planes in R^4, yet its circle action
with moment values (0, 3, 3, 4) and weights (1, 3), (-1, 1), (-3, 1),
(-1, -1) gets no candidate, since 0 + 4 differs from 3 + 3.
The search then enumerates every weight assignment compatible with
the following filters, for n up to MAX_CLASSIFY_N; a larger n is refused
before any product is predicted, since the factorization search recurses
once or twice per weight:

* divisibility: each weight at a point divides some nonzero moment gap from
  that point (the arithmetic consequence of isotropy spheres), so the
  allowed weights are the divisors of the gaps. Each distinct gap is
  factored once per call, by trial division, and its divisors come out
  tagged with their largest prime. A profile is refused at the first gap
  whose factoring would try a divisor above MAX_TRIAL_DIVISOR. No divisor
  exceeds the moment spread, so the gaps are the only bound;
* the forced pattern of negative-weight counts;
* the predicted per-point products, searched as factorizations over the
  allowed values, placed prime by prime with the cuts and the node cap
  MAX_FACTORIZATION_NODES that ``_factorizations`` states. A profile
  symmetric about the middle pair poses the same problems at points i and
  n + 1 - i, so each distinct allowed set is grouped, and each distinct
  problem solved, once per ``enumerate_candidates`` call, and nothing is
  kept between calls;
* affinity of the weight sums in the moment values: in dimension above 4
  the second cohomology has rank one, so the first Chern class is a
  multiple of the symplectic class, and the weight sums lie on a line fixed
  by the sums at two points. At n = 2 there is no such line; every option
  gets the key 0, and the one line (0, 0) holds every option;
* exact vanishing of the localization sum of c_k for 0 < k < n. Every option
  at a point P has the same weight product L_P, so over the common
  denominator L = lcm |L_P| it adds the integer e_k(weights) * (L / L_P) to
  the numerator of the integral of c_k. A meet in the middle joins the two
  halves of the point list on opposite sums of these numerators, packed
  into one int per option as ``_keyed_join`` states;
* full validation, which checks negation closure of the global weight
  multiset, plus exact vanishing of the localization sum of every monomial
  in the equivariant symplectic class and the equivariant Chern classes
  below the top degree (``localize.localization_consistent``), which
  expands the weights of each point of a survivor and walks each Chern
  partition once, closing it against every power of the symplectic class
  at once. In dimension above 4 every survivor lies on the affine line
  above, so c_1 is affine in the symplectic class and the sums with a
  factor c_1 follow from the others: that walk skips them. Products and
  negation closure alone are not sufficient: there are assignments sharing all per-point
  products with the true data that only the Chern-class sums reject.

Search branches are independent, and no stage orders its options: the
survivors are sorted once, lexicographically by their per-point weight
tuples, so the output does not depend on evaluation order.
The input type ``MomentProfile`` lives in ``fpdata``, beside datasets.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import prod

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
    chern_restriction,
    integrate,
    localization_consistent,
    symplectic_class,
)
from .record import Record

# Largest n the classifier searches. ``_factorizations`` recurses through
# up to two frames for each weight it places, so at most n weights keep its
# depth near 2n frames. Without the limit, the minimal profile at n = 1600
# passes Python's recursion limit, and the ones at n = 1000 and n = 1200
# reach the node limit only after 7.5 s and 11.6 s (CPython 3.11.7, 2-core
# x86-64). Every profile the tests and CI search has n <= 24.
MAX_CLASSIFY_N = 64
# Most assignments one half of the meet-in-the-middle join may build.
MAX_HALF_ASSIGNMENTS = 10**6
# Most nodes one factorization search may visit, each factorization it stores
# counted as count nodes, so a search never holds more than this many parts
# in all. One search on the classify-std and classify-sweep profiles at n = 8
# visits at most 5,392 and 13,578; the minimal profiles at n = 20 and 24 pass
# the limit after about 0.25 s in-process, at a peak RSS of about 24 MB.
MAX_FACTORIZATION_NODES = 10**6
# Largest divisor the trial division of one moment gap may try. Every gap
# below MAX_TRIAL_DIVISOR^2 = 1.6 * 10^13 factors, and so does a larger gap
# whose part left after its primes up to the limit is 1 or a prime below that
# square. One gap costs at most about 2 * 10^6 divisions, 2 and the odd d:
# 0.3-0.5 s in CPython 3.11 on a 2-core x86-64 host.
MAX_TRIAL_DIVISOR = 4 * 10**6

# The allowed values of one point and their prime groups (``_prime_groups``).
_Allowed = tuple[frozenset[int], tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]]


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

    One rule covers every point i: the negative product is the product of
    the gaps phi_j - phi_i over j < i, and the positive product the product
    over j > i, each leaving out the gap inside the middle pair (j = n/2 + 1
    at i = n/2, j = n/2 at i = n/2 + 1). Away from the middle pair, the side
    that reaches across it is divided by the summed gap
    (phi_{n/2} - phi_i) + (phi_{n/2+1} - phi_i): the positive product below
    n/2, the negative product above n/2 + 1. The profile is strict away from
    the middle pair, so that sum is never zero. A fractional product raises
    InconsistentProfileError.

    Wherever it returns, the products fix every integral of a power of u,
    the class with restriction h_P = phi_0 - phi_P at point P: the sum over
    P of h_P^a / (negative product * positive product) is 0 for 0 <= a < n
    and 2 at a = n, as on the oriented 2-plane Grassmannian.

    At n = 2 the second cohomology has rank two, and the products of the
    4-dimensional case are the four-gap products ab, -a(c - a), -b(c - b)
    and (c - a)(c - b), with a = phi_1 - phi_0, b = phi_2 - phi_0 and
    c = phi_3 - phi_0. Their localization sum of 1 is
    (a + b - c)^2 / (ab(c - a)(c - b)), so every assignment with these
    products fails the localization of 1 unless c = a + b, that is
    phi_0 + phi_3 = phi_1 + phi_2, and an n = 2 profile that is not
    symmetric about its middle pair raises InconsistentProfileError. On a
    symmetric one the rule's quotients abc / (a + b) at P0 and
    (-c)(a - c)(b - c) / (a + b - 2c) at P3 reduce to the four-gap products
    ab and (c - a)(c - b), and at P1 and P2 it takes the same two gaps, so
    the rule serves n = 2 as well. The guard is kept even though the rule's
    products integrate 1 and u to 0 at every n = 2 profile: without it only
    the search would reject an asymmetric one. So the Sigma_2 profile
    (0, 3, 3, 4) raises, since 0 + 4 differs from 3 + 3.
    """
    n = profile.n
    phi = profile.phi
    m = n + 2
    half = n // 2
    if n == 2 and not check_symmetry(profile):
        raise InconsistentProfileError(
            f"the n = 2 profile is not symmetric: phi_0 + phi_3 = "
            f"{phi[0] + phi[3]} but phi_1 + phi_2 = {phi[1] + phi[2]}"
        )
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


def _tagged_divisors(g: int) -> dict[int, tuple[int, int]]:
    """The divisors d > 1 of g >= 1, each tagged (p, e): p is the largest
    prime factor of d, and p^e exactly divides d. g is factored once, by 2
    and then the odd d while d * d is at most the cofactor, smallest prime
    first, so each new divisor is one over the smaller primes times p^e. A
    factoring that would try a d above MAX_TRIAL_DIVISOR raises
    SearchTooLargeError."""
    tagged: dict[int, tuple[int, int]] = {}
    rest, d = g, 2
    while rest > 1:
        if d * d > rest:
            # no factor up to sqrt(rest) is left, so rest is prime
            d = rest
        elif d > MAX_TRIAL_DIVISOR:
            raise SearchTooLargeError(
                f"factoring the moment gap {g} would try divisors above the "
                f"limit of {MAX_TRIAL_DIVISOR}"
            )
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            tagged.update(
                {v * d**k: (d, k) for v in [1, *tagged] for k in range(1, e + 1)}
            )
        d += 1 + (d > 2)
    return tagged


def _prime_groups(tagged: list[dict[int, tuple[int, int]]]) -> _Allowed:
    """1 and the tagged divisors of a point's gaps, as the pair
    (values, groups) in the order the factorization search places them.

    values holds 1 and every divisor, so every prime of an allowed value is
    allowed. groups holds one (p, cap, members) per prime p that divides an
    allowed value, largest p first: members are the values whose largest
    prime factor is p, each as (exponent of p in it, value), in increasing
    order, p among them, and cap is the largest value of this group and the
    groups after it.
    """
    merged = {v: tag for divisors in tagged for v, tag in divisors.items()}
    found: dict[int, list[tuple[int, int]]] = {}
    for v, (p, e) in merged.items():
        found.setdefault(p, []).append((e, v))
    groups = []
    cap = 1
    for p in sorted(found):
        members = tuple(sorted(found[p]))
        cap = max([cap, *[v for _, v in members]])
        groups.append((p, cap, members))
    return frozenset([1, *merged]), tuple(reversed(groups))


def _factorizations(
    target: int, count: int, allowed: _Allowed
) -> list[tuple[int, ...]]:
    """Nondecreasing count-tuples over the allowed values with the given
    product (target >= 1), in lexicographic order.

    Parts are placed group by group, from the largest prime p down, and
    within a group in the group's order. Once the groups above p are placed,
    the exponent of p still in the target must be placed by p's group alone,
    so a branch is cut when that exponent exceeds what the parts left can
    carry, each at most the group's largest exponent of p, or when the
    product still to place exceeds the group's cap to the power of the parts
    left. The last part is the product still to place, if it is allowed and
    comes no earlier in the order. A search that would visit more than
    MAX_FACTORIZATION_NODES nodes raises SearchTooLargeError; every
    factorization it stores counts as count nodes, checked before it is
    stored, so at most MAX_FACTORIZATION_NODES // count are ever held.
    """
    values, groups = allowed
    if count == 0:
        return [()] if target == 1 else []
    if count == 1:
        return [(target,)] if target in values else []
    rest = target
    for p, _, _ in groups:
        while rest % p == 0:
            rest //= p
    if rest != 1:
        # a prime of the target divides no allowed value
        return []
    results: list[tuple[int, ...]] = []
    # the nodes of the search tree: every value tried as the next part, and
    # count for each factorization stored, whether its last part is the
    # product still to place or its parts left are filled with 1
    nodes = 0

    def check_nodes() -> None:
        if nodes > MAX_FACTORIZATION_NODES:
            raise SearchTooLargeError(
                f"the factorization of {target} into {count} weights would "
                f"visit more than the limit of {MAX_FACTORIZATION_NODES} nodes"
            )

    def place(
        g: int, start: int, remaining: int, need: int, left: int, chosen: list[int]
    ) -> None:
        # need >= 1 is the exponent of group g's prime still in remaining,
        # and at least two parts are left
        nonlocal nodes
        _, cap, members = groups[g]
        if left == 2:
            for a, v in members[start:]:
                if a > need:
                    break
                nodes += 1
                last, r = divmod(remaining, v)
                # a last part in group g comes at (need - a, last) in its order
                after = a == need or (need - a, last) >= (a, v)
                if r == 0 and last in values and after:
                    nodes += count
                    check_nodes()
                    results.append(tuple(sorted([*chosen, v, last])))
            check_nodes()
            return
        bound = cap ** (left - 1)
        carry = (left - 1) * members[-1][0]
        for i in range(start, len(members)):
            a, v = members[i]
            if a > need:
                break
            nodes += 1
            if need - a > carry or remaining % v or remaining // v > bound:
                continue
            chosen.append(v)
            if a < need:
                place(g, i, remaining // v, need - a, left - 1, chosen)
            else:
                enter(g + 1, remaining // v, left - 1, chosen)
            chosen.pop()
        check_nodes()

    def enter(g: int, remaining: int, left: int, chosen: list[int]) -> None:
        # the groups before g are placed, and at least two parts are left
        nonlocal nodes
        if remaining == 1:
            nodes += count
            check_nodes()
            results.append((*[1] * left, *sorted(chosen)))
            return
        while remaining % groups[g][0]:
            g += 1
        p, _, members = groups[g]
        need = 0
        rest = remaining
        while rest % p == 0:
            rest //= p
            need += 1
        if need <= left * members[-1][0]:
            place(g, 0, remaining, need, left, chosen)

    enter(0, target, count, [])
    results.sort()
    return results


def _keyed_join(
    options: list[list[tuple[int, ...]]], scales: list[int]
) -> list[tuple[tuple[int, ...], ...]]:
    """Every assignment whose Chern keys, e_1 .. e_{n-1} of the option at
    point i times scales[i], sum to zero, by meeting in the middle: choices
    of one option per point in the two halves join on opposite key sums.

    Each key is packed into one int in base B, entry k at B^(k-1), by one
    product: prod(1 + w * B) over the option's weights is the sum of
    e_k * B^k, so dropping e_0 = 1 and e_n * B^n, dividing by B and
    multiplying by the scale packs the key without expanding e_k. B is
    2 * (sum over the points of |scale| times the largest prod(1 + |w|) of
    an option) + 1, and |e_k| <= prod(1 + |w|), so every entry of a sum of
    keys lies strictly between -B/2 and B/2: sums of packed keys are the
    packed sums of keys, and a packed sum is zero exactly when every entry
    is. Both halves' key sums are formed as ints, the upper half's negated,
    and the keys they share are found by set intersection before any choice
    is built: without one the join returns at once, and otherwise only the
    upper choices with a shared key are held, in a dict from key to
    choices, while the lower half is streamed past it. Each half is counted
    before anything is built, and a half of more than MAX_HALF_ASSIGNMENTS
    raises SearchTooLargeError.
    """
    half = len(options) // 2
    for opts in (options[half:], options[:half]):
        size = prod(len(o) for o in opts)
        if size > MAX_HALF_ASSIGNMENTS:
            raise SearchTooLargeError(
                f"the search would build {size} assignments for one half of "
                f"the point list, more than the limit of {MAX_HALF_ASSIGNMENTS}"
            )
    n = len(options[0][0])
    base = 2 * sum(
        abs(s) * max(prod([1 + abs(w) for w in o]) for o in opts)
        for opts, s in zip(options, scales)
    ) + 1
    top = base**n

    def pack(option: tuple[int, ...], scale: int) -> int:
        value = 1
        for w in option:
            value *= 1 + w * base
        return (value - 1 - prod(option) * top) // base * scale

    packed = [[pack(o, s) for o in opts] for opts, s in zip(options, scales)]

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

    The stages run in order: the predicted products; point by point, the
    point's gaps factored, its negative and then its positive product
    searched, and its options bucketed by key as they are built; the lines
    through two anchor points, each joined on its Chern keys; the final
    filter. A profile with n above MAX_CLASSIFY_N raises
    SearchTooLargeError before its products are predicted. The output is
    empty for a profile whose predicted products raise
    InconsistentProfileError (fractional, or an n = 2 profile that is not
    symmetric), before any gap is factored, and for one with a point
    without options: the search ends at the first such point, before any
    later point's gaps are factored or searched, and skips the positive
    search at a point whose negative product has no factorization. So a
    factoring or factorization search that reaches its limit raises
    SearchTooLargeError only at a point the search reaches, and a join that
    would pass its limit raises it before the join builds anything. Every
    weight the moment gaps allow is searched: each divides a gap, so none
    exceeds the spread.

    The one order guarantee: candidates are sorted lexicographically by
    their per-point weight tuples, each tuple sorted. The options of a
    point, the buckets, pairs and joins of each stage have no order; the
    candidates are sorted once, before the final filter.
    """
    n = profile.n
    if n > MAX_CLASSIFY_N:
        raise SearchTooLargeError(
            f"the search for n = {n} is refused: n is above the limit of "
            f"{MAX_CLASSIFY_N}"
        )
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
    # Each gap is a gap at both its points, and points i and n + 1 - i of a
    # symmetric profile have the same gaps and pose the same problems.
    divisors = cache(_tagged_divisors)
    prime_groups = cache(lambda gaps: _prime_groups([divisors(g) for g in gaps]))
    factorizations = cache(_factorizations)
    # In dimension above 4 the second cohomology has rank one, so the weight
    # sums must be an affine function of the moment values (the first Chern
    # class is a single multiple of the symplectic class): each option's key
    # is its weight sum. At n = 2 there is no such line, and every key is 0.
    on_line = int(n > 2)
    by_key: list[dict[int, list[tuple[int, ...]]]] = []
    for i, (neg, pos) in enumerate(products):
        allowed = prime_groups(
            frozenset([abs(phi[j] - phi[i]) for j in range(m) if phi[j] != phi[i]])
        )
        # The negative product has the sign (-1)^pattern[i] and the positive
        # product is at least 1, so every option is pattern[i] negated
        # factors of |neg| and n - pattern[i] factors of pos.
        neg_parts = factorizations(abs(neg), pattern[i], allowed)
        pos_parts = neg_parts and factorizations(pos, n - pattern[i], allowed)
        if not pos_parts:
            return []
        pos_keys = [(on_line * sum(p), p) for p in pos_parts]
        buckets: dict[int, list[tuple[int, ...]]] = {}
        for parts in neg_parts:
            # parts is nondecreasing, so its reversed negation is sorted
            negs = tuple([-v for v in reversed(parts)])
            neg_key = on_line * sum(parts)
            for pos_key, p in pos_keys:
                buckets.setdefault(pos_key - neg_key, []).append(negs + p)
        by_key.append(buckets)

    # Run through the lines fixed by the keys at two anchor points, and keep
    # at every point the bucket whose key lies on the line. At n = 2 the
    # anchors have the one line (0, 0), and it holds every option.
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m) if phi[i] != phi[j]]
    a, b = min(pairs, key=lambda p: len(by_key[p[0]]) * len(by_key[p[1]]))
    run = phi[b] - phi[a]
    found = []
    for key_a, key_b in product(by_key[a], by_key[b]):
        filtered: list[list[tuple[int, ...]]] = []
        for i in range(m):
            rise, r = divmod((key_b - key_a) * (phi[i] - phi[a]), run)
            filtered.append(by_key[i].get(key_a + rise, []) if r == 0 else [])
            if not filtered[-1]:
                break
        else:
            found += _keyed_join(filtered, scales)

    candidates = []
    for assignment in sorted(found):
        data = FixedPointData(
            n,
            tuple(FixedPoint(phi[i], assignment[i]) for i in range(m)),
        )
        if validate(data).passed and localization_consistent(data):
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
