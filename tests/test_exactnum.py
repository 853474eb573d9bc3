from fractions import Fraction
from itertools import combinations
from math import lcm, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from hamfp import elementary_symmetric
from hamfp.exactnum import exact_fraction, shares

SETTINGS = settings(derandomize=True, deadline=None)

fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50))
nonzero = st.integers(-10**6, 10**6).filter(bool)


@settings(SETTINGS, max_examples=300)
@given(fractions, fractions, fractions)
def test_field_axioms_randomized(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1


@settings(SETTINGS, max_examples=50)
@given(st.lists(st.integers(-6, 6).map(lambda v: v or 1), min_size=1, max_size=6))
def test_elementary_symmetric_against_bruteforce(values):
    es = elementary_symmetric(values)
    assert es[0] == 1
    for k in range(1, len(values) + 1):
        brute = sum(prod(c) for c in combinations(values, k))
        assert es[k] == brute


@settings(SETTINGS, max_examples=100)
@given(st.lists(nonzero, min_size=1, max_size=8))
def test_shares_put_each_reciprocal_over_the_lcm(products):
    common, parts = shares(products)
    assert common == lcm(*products) > 0
    assert [Fraction(s, common) for s in parts] == [Fraction(1, p) for p in products]


@settings(SETTINGS, max_examples=200)
@given(st.integers(-10**9, 10**9), nonzero)
def test_exact_fraction_is_the_reduced_quotient(num, den):
    value = exact_fraction(num, den)
    assert type(value) is Fraction
    assert value == Fraction(num, den)
