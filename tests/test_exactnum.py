import random
from fractions import Fraction
from itertools import combinations
from math import prod

from hamfp import elementary_symmetric


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
