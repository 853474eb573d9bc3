"""The classifier's search filters lose no solution.

The factoring of each moment gap, the factorization search and the
meet-in-the-middle join on Chern-class keys are each compared with a
brute-force enumeration on generated inputs; the join's oracle sums the
integrals of c_k as fractions, without the keys' common denominator or their
packing into one int."""

from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import lcm, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hamfp.solver
from hamfp import (
    DataError,
    MomentProfile,
    SearchTooLargeError,
    elementary_symmetric,
    enumerate_candidates,
    make_standard_g2,
)
from hamfp.solver import (
    MAX_HALF_ASSIGNMENTS,
    _factorizations,
    _keyed_join,
    _prime_groups,
    _tagged_divisors,
)
from oracle import chern_key

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)


def divisors_of(gaps):
    """The divisors of the gaps, by testing every value up to the largest."""
    return [d for d in range(1, max(gaps) + 1) if any(g % d == 0 for g in gaps)]


def is_prime(q):
    return divisors_of([q]) == [1, q]


@SETTINGS
@given(st.integers(1, 20_000))
@example(1)
@example(2**14)
@example(2 * 3 * 5 * 7 * 11 * 13)
@example(19_997)  # prime
@example(2 * 9973)  # a prime cofactor above sqrt(g)
@example(139**2)
def test_tagged_divisors_are_the_divisors_with_their_largest_prime(g):
    tagged = _tagged_divisors(g)
    assert sorted([1, *tagged]) == divisors_of([g])
    for d, (p, e) in tagged.items():
        assert is_prime(p)
        assert d % p**e == 0 and d % p ** (e + 1) != 0
        rest = d // p**e
        assert all(q < p for q in divisors_of([rest])[1:] if is_prime(q))


def largest_prime_and_exponent(d):
    """(p, e) for d > 1: p is the largest prime factor of d, p^e exactly
    divides d; by dividing out every q from 2 up."""
    q = 2
    while d > 1:
        e = 0
        while d % q == 0:
            d //= q
            e += 1
        if d == 1:
            return q, e
        q += 1


@SETTINGS
@given(st.lists(st.integers(1, 10**4), min_size=1, max_size=5))
@example([1])
@example([2 * 3 * 5 * 7 * 11 * 13])
@example([9973, 2**13])
def test_prime_groups_hold_every_divisor_by_its_largest_prime(gaps):
    values, groups = _prime_groups([_tagged_divisors(g) for g in gaps])
    divisors = divisors_of(gaps)
    assert values == frozenset(divisors)
    primes = [p for p, _, _ in groups]
    assert all(p > q for p, q in zip(primes, primes[1:]))
    tags = {d: largest_prime_and_exponent(d) for d in divisors[1:]}
    assert set(primes) == {p for p, _ in tags.values()}
    for k, (p, cap, members) in enumerate(groups):
        assert members == tuple(sorted((e, d) for d, (q, e) in tags.items() if q == p))
        assert cap == max(v for _, _, later in groups[k:] for _, v in later)


@st.composite
def factorization_cases(draw):
    gaps = draw(st.sets(st.integers(1, 48), min_size=1, max_size=4))
    allowed = divisors_of(gaps)
    count = draw(st.integers(0, 5))
    # a product of allowed values usually factors; a free target rarely does
    parts = draw(st.lists(st.sampled_from(allowed), min_size=count, max_size=count))
    target = draw(st.one_of(st.just(prod(parts)), st.integers(1, 10**5)))
    return target, count, gaps


def factorizations(target, count, gaps):
    """The search over the divisors of the gaps, grouped as the solver
    groups them."""
    allowed = _prime_groups([_tagged_divisors(g) for g in gaps])
    return _factorizations(target, count, allowed)


@SETTINGS
@given(factorization_cases())
# the divisors of the gaps 8..14 are 1..14
@example((14_515_200, 8, range(8, 15)))
@example((1, 3, (2, 3)))
# a prime group of 13, 26 and 39 above the groups of 3 and 2
@example((2 * 3 * 13**3 * 4, 4, (4, 6, 26, 39)))
def test_factorizations_match_brute_force(case):
    target, count, gaps = case
    expected = [
        c
        for c in combinations_with_replacement(divisors_of(gaps), count)
        if prod(c) == target
    ]
    assert factorizations(target, count, gaps) == expected


def test_factorization_search_past_the_cap_is_refused(monkeypatch):
    case = (14_515_200, 8, range(8, 15))
    assert factorizations(*case)
    monkeypatch.setattr(hamfp.solver, "MAX_FACTORIZATION_NODES", 10)
    with pytest.raises(SearchTooLargeError, match="limit of 10 nodes") as info:
        factorizations(*case)
    assert isinstance(info.value, DataError)


def test_factorization_search_counts_every_factorization(monkeypatch):
    # each factorization stored counts as at least one node of the search,
    # so a cap below their number refuses the search
    case = (14_515_200, 8, range(8, 15))
    found = factorizations(*case)
    monkeypatch.setattr(hamfp.solver, "MAX_FACTORIZATION_NODES", len(found) - 1)
    with pytest.raises(SearchTooLargeError):
        factorizations(*case)


def test_factorization_search_charges_each_factorization_its_length(monkeypatch):
    # each factorization stored counts as many nodes as it has parts, so the
    # parts a search holds never pass the cap: 58 factorizations of 8 parts
    # need a cap of at least 8 * 58
    case = (14_515_200, 8, range(8, 15))
    assert len(factorizations(*case)) == 58
    monkeypatch.setattr(hamfp.solver, "MAX_FACTORIZATION_NODES", 8 * 58 - 1)
    with pytest.raises(SearchTooLargeError):
        factorizations(*case)


@pytest.mark.parametrize("g", [143, 121])
def test_factoring_a_gap_past_the_divisor_limit_is_refused(monkeypatch, g):
    # 11 and 13 are above the limit of 10, and 11 * 11 <= g
    monkeypatch.setattr(hamfp.solver, "MAX_TRIAL_DIVISOR", 10)
    with pytest.raises(SearchTooLargeError, match=f"moment gap {g} .* limit of 10$"):
        _tagged_divisors(g)


def test_a_prime_cofactor_past_the_divisor_limit_needs_no_division(monkeypatch):
    # once the 2s are divided out, 97 is left, and 11 * 11 > 97 proves it
    # prime before any divisor above the limit of 10 is tried
    monkeypatch.setattr(hamfp.solver, "MAX_TRIAL_DIVISOR", 10)
    tagged = _tagged_divisors(97 * 2**10)
    assert tagged[97] == (97, 1) and tagged[97 * 2**10] == (97, 1)


@st.composite
def option_lists(draw, ns=(2, 4), exponents=st.integers(1, 5), variants=2):
    """Weight tuples per point sharing the point's weight product, as the
    solver's options do: the standard weights of a random set of exponents,
    so that some assignment has vanishing sums, and up to variants tuples
    made from them by moving a divisor d of one weight, with either sign, to
    another."""
    n = draw(st.sampled_from(ns))
    size = n // 2 + 1
    exponents = draw(st.sets(exponents, min_size=size, max_size=size))
    options = []
    for point in make_standard_g2(sorted(exponents)).points:
        opts = [tuple(sorted(point.weights))]
        for _ in range(draw(st.integers(0, variants))):
            w = list(draw(st.sampled_from(opts)))
            i, j = draw(st.permutations(range(n)))[:2]
            divisors = [d for d in range(1, abs(w[i]) + 1) if w[i] % d == 0]
            d = draw(st.sampled_from(divisors)) * draw(st.sampled_from((1, -1)))
            w[i], w[j] = w[i] // d, w[j] * d
            opts.append(tuple(sorted(w)))
        options.append(draw(st.permutations(list(dict.fromkeys(opts)))))
    return n, options


def join_scales(options):
    """The solver's key scales: L / L_i, with L the lcm of the products."""
    products = [prod(opts[0]) for opts in options]
    return [lcm(*products) // p for p in products]


@st.composite
def unsolvable_option_lists(draw):
    """option_lists with every option at one point scaled by a factor c > 1,
    which multiplies the point's share of the integral of c_k by c^(k - n):
    the other points' options rarely make up for that at every k."""
    n, options = draw(option_lists())
    point = draw(st.integers(0, len(options) - 1))
    c = draw(st.integers(2, 5))
    options[point] = [tuple(c * w for w in opt) for opt in options[point]]
    return n, options


def vanishing_choices(n, options):
    """The choices of one option per point whose integrals of c_1..c_{n-1},
    summed as fractions, all vanish."""
    return [
        choice
        for choice in product(*options)
        if all(
            sum(Fraction(elementary_symmetric(w)[k], prod(w)) for w in choice) == 0
            for k in range(1, n)
        )
    ]


def assert_join_matches_fractions(n, options, scales):
    expected = vanishing_choices(n, options)
    assert expected
    found = _keyed_join(options, scales)
    assert sorted(found) == sorted(expected)


@SETTINGS
@given(option_lists())
def test_keyed_join_keeps_exactly_the_vanishing_chern_sums(case):
    n, options = case
    assert_join_matches_fractions(n, options, join_scales(options))


@SETTINGS
@given(unsolvable_option_lists())
def test_keyed_join_without_vanishing_sums_is_empty(case):
    n, options = case
    assume(not vanishing_choices(n, options))
    assert _keyed_join(options, join_scales(options)) == []


@settings(SETTINGS, max_examples=25)
@given(option_lists(ns=(6,), exponents=st.integers(10, 40), variants=2))
def test_keyed_join_with_large_keys_of_both_signs(case):
    # at n = 6 the key entries run past 10**6 with both signs, so the base
    # the join packs keys in is far from the small cases above
    n, options = case
    scales = join_scales(options)
    entries = [
        e
        for opts, scale in zip(options, scales)
        for opt in opts
        for e in chern_key(opt, scale)
    ]
    assert max(entries) > 10**6 and min(entries) < -(10**6)
    assert_join_matches_fractions(n, options, scales)


@pytest.mark.parametrize(
    "options, scales, solutions",
    [
        # keys (0, -4, 0), (-1, -3, 5) and (1, -6, -4) from the first options
        # sum to (0, -13, 1), which packs to 0 in base 13, twice the largest
        # entry at one point plus one; the second options' keys (-6, 2, 6),
        # (2, -4, -2) and (4, 2, -4) sum to zero
        (
            [
                [(-1, -1, 1, 1), (-2, -1, -1, 1)],
                [(-1, -1, -1, 2), (-1, -1, 1, 3)],
                [(-2, -1, 2, 2), (-1, 1, 1, 3)],
            ],
            [2, 1, 1],
            [((-2, -1, -1, 1), (-1, -1, 1, 3), (-1, 1, 1, 3))],
        ),
        # keys 99202 * (8, 18, 0), 373 * (10, 25, 0) and 28951 * (7, -62, 0)
        # sum to (1000003, -1, 0), which packs to 0 in base 1000003
        (
            [[(-1, 3, 3, 3)], [(-1, 2, 3, 6)], [(-4, -3, 2, 12)]],
            [99202, 373, 28951],
            [],
        ),
        # the standard data for exponents 2, 1 with P1 and P2 offered each
        # other's weights has two solutions; with P0's weights doubled, the
        # lower half's key sums 0 and 16 miss the upper half's 8 and 24
        (
            [[(2, 6)], [(-1, 3), (-3, 1)], [(-3, 1), (-1, 3)], [(-3, -1)]],
            [1, -4, -4, 4],
            [],
        ),
    ],
    ids=["twice-the-largest-entry-at-one-point", "fixed-1000003", "halves-never-meet"],
)
def test_keyed_join_packing_base_admits_no_false_zero(options, scales, solutions):
    # the first options' keys sum to a nonzero vector that a base too small
    # for the sum of the points' largest entries would pack to 0
    def key_sum(choice):
        keys = [chern_key(o, s) for o, s in zip(choice, scales)]
        return [sum(e) for e in zip(*keys)]

    assert [c for c in product(*options) if not any(key_sum(c))] == solutions
    assert sorted(_keyed_join(options, scales)) == solutions


def test_oversized_join_is_refused_before_it_is_built():
    # the minimal profile at n = 12 needs a half of 3,696,000 assignments
    data = make_standard_g2([7, 6, 5, 4, 3, 2, 1])
    with pytest.raises(SearchTooLargeError, match="3696000 assignments") as info:
        enumerate_candidates(MomentProfile(data.n, data.phis))
    assert isinstance(info.value, DataError)
    assert f"limit of {MAX_HALF_ASSIGNMENTS}" in str(info.value)
