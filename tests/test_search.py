"""The classifier's search filters lose no solution.

The factorization search and the meet-in-the-middle join on Chern-class
keys are each compared with a brute-force enumeration on generated inputs;
the join's oracle sums the integrals of c_k as fractions, without the keys'
common denominator."""

from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamfp import (
    DataError,
    MomentProfile,
    SearchTooLargeError,
    elementary_symmetric,
    enumerate_candidates,
    make_standard_g2,
)
from hamfp.solver import MAX_HALF_ASSIGNMENTS, _factorizations, _keyed_join

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def factorization_cases(draw):
    allowed = tuple(
        sorted(draw(st.sets(st.integers(1, 12), min_size=1, max_size=8)))
    )
    count = draw(st.integers(0, 5))
    # a product of allowed values usually factors; a free target rarely does
    parts = draw(st.lists(st.sampled_from(allowed), min_size=count, max_size=count))
    target = draw(st.one_of(st.just(prod(parts)), st.integers(1, 10**5)))
    return target, count, allowed


@SETTINGS
@given(factorization_cases())
@example((14_515_200, 8, tuple(range(1, 15))))
@example((1, 3, (2, 3)))
def test_factorizations_match_brute_force(case):
    target, count, allowed = case
    expected = [
        c for c in combinations_with_replacement(allowed, count) if prod(c) == target
    ]
    assert _factorizations(target, count, allowed) == expected


@st.composite
def option_lists(draw):
    """Weight tuples per point sharing the point's weight product, as the
    solver's options do: the standard weights of a random exponent set, so
    that some assignment has vanishing sums, and up to two tuples made from
    them by moving a divisor d of one weight, with either sign, to another."""
    n = draw(st.sampled_from((2, 4)))
    size = n // 2 + 1
    exponents = draw(st.sets(st.integers(1, 5), min_size=size, max_size=size))
    options = []
    for point in make_standard_g2(sorted(exponents)).points:
        opts = [tuple(sorted(point.weights))]
        for _ in range(draw(st.integers(0, 2))):
            w = list(draw(st.sampled_from(opts)))
            i, j = draw(st.permutations(range(n)))[:2]
            divisors = [d for d in range(1, abs(w[i]) + 1) if w[i] % d == 0]
            d = draw(st.sampled_from(divisors)) * draw(st.sampled_from((1, -1)))
            w[i], w[j] = w[i] // d, w[j] * d
            opts.append(tuple(sorted(w)))
        options.append(draw(st.permutations(list(dict.fromkeys(opts)))))
    return n, options


@SETTINGS
@given(option_lists())
def test_keyed_join_keeps_exactly_the_vanishing_chern_sums(case):
    n, options = case
    products = [prod(opts[0]) for opts in options]
    scales = [lcm(*products) // p for p in products]
    expected = [
        choice
        for choice in product(*options)
        if all(
            sum(Fraction(elementary_symmetric(w)[k], prod(w)) for w in choice) == 0
            for k in range(1, n)
        )
    ]
    assert expected
    assert sorted(_keyed_join(options, scales)) == sorted(expected)


def test_oversized_join_is_refused_before_it_is_built():
    # the minimal profile at n = 12 needs a half of 3,696,000 assignments
    data = make_standard_g2([7, 6, 5, 4, 3, 2, 1])
    with pytest.raises(SearchTooLargeError, match="3696000 assignments") as info:
        enumerate_candidates(MomentProfile(data.n, data.phis))
    assert isinstance(info.value, DataError)
    assert f"limit of {MAX_HALF_ASSIGNMENTS}" in str(info.value)
