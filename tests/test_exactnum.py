import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest

from hamfp import ZeroDenominatorError, elementary_symmetric, rational


def test_rational_examples():
    assert rational(2, 4) == Fraction(1, 2)
    assert rational(-3, -3) == Fraction(1, 1)
    assert rational(0, 5) == Fraction(0, 1)


def test_rational_zero_denominator():
    with pytest.raises(ZeroDenominatorError):
        rational(1, 0)


def test_rational_canonical_form():
    rng = random.Random(1)
    for _ in range(200):
        num = rng.randint(-10**6, 10**6)
        den = rng.randint(-10**6, 10**6) or 1
        q = rational(num, den)
        assert q.denominator > 0
        assert gcd(abs(q.numerator), q.denominator) == 1
        if q.numerator == 0:
            assert q.denominator == 1


def test_field_axioms_randomized():
    rng = random.Random(2)

    def pick():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 50))

    for _ in range(300):
        a, b, c = pick(), pick(), pick()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1


def test_elementary_symmetric_against_bruteforce():
    rng = random.Random(4)
    for _ in range(50):
        values = [rng.randint(-6, 6) or 1 for _ in range(rng.randint(1, 6))]
        es = elementary_symmetric(values)
        assert es[0] == 1
        for k in range(1, len(values) + 1):
            brute = sum(prod(c) for c in combinations(values, k))
            assert es[k] == brute
