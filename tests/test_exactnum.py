from fractions import Fraction
from itertools import combinations
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from hamfp import elementary_symmetric

SETTINGS = settings(derandomize=True, deadline=None)

fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50))


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
