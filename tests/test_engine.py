"""The localization engine against oracles that do not use it.

Oracle 1 is the quadric: the standard data is the circle action on the
oriented 2-plane Grassmannian, the quadric Q_n, with c(TQ_n) =
(1+x)^(n+2)/(1+2x) and integral of x^n equal to 2. Oracle 2 is the naive
sum over restriction tuples, monomial by monomial.
"""

import math
import random
from fractions import Fraction

import pytest

from hamfp import (
    FixedPoint,
    FixedPointData,
    NotAManifoldError,
    chern_number,
    chern_restriction,
    integrate,
    localization_consistent,
    make_standard_g2,
    partitions,
    point_invariants,
    symplectic_class,
    validate,
)
from hamfp.localize import localization_sums

from conftest import quadric_chern_coefficients, sample_exponents


def quadric_numbers(n):
    """Chern number of every partition of n on Q_n: 2 * prod(a_k), where
    (1+x)^(n+2)/(1+2x) = sum a_k x^k."""
    a = quadric_chern_coefficients(n)
    return {p: 2 * math.prod(a[k] for k in p) for p in partitions(n)}


@pytest.mark.parametrize("n", range(2, 13, 2))
def test_chern_numbers_match_the_quadric(n):
    rng = random.Random(1000 + n)
    expected = quadric_numbers(n)
    for exponents in (range(n // 2 + 1, 0, -1), sample_exponents(rng, n)):
        data = make_standard_g2(list(exponents))
        grid = localization_sums(data, [n], with_u=False, with_chern=True)
        got = {parts: value for a, parts, value in grid if a == 0}
        assert got == expected
        if n <= 8:
            assert {p: chern_number(data, p) for p in expected} == expected


def naive_sums(data, degrees):
    """(a, parts, integral) from restriction tuples, in the engine's order:
    degree ascending, u-power descending, partitions as listed."""
    u = symplectic_class(data)
    out = []
    for d in degrees:
        for a in range(d, -1, -1):
            for parts in partitions(d - a):
                cls = u.power(a)
                for p in parts:
                    cls = cls * chern_restriction(data, p)
                total = sum(
                    c / point_invariants(data, i).lambda_full
                    for i, c in enumerate(cls.coeffs)
                )
                if d < data.n and total != 0:
                    with pytest.raises(NotAManifoldError):
                        integrate(data, cls)
                else:
                    assert integrate(data, cls) == total
                out.append((a, parts, Fraction(total)))
    return out


def products_and_closure_variant():
    # shares every per-point weight product with the standard data of the
    # profile (-3..3) and is closed under negation
    return FixedPointData(
        4,
        (
            FixedPoint(-3, (2, 2, 2, 5)),
            FixedPoint(-2, (-1, 1, 3, 5)),
            FixedPoint(-1, (-2, -1, 3, 4)),
            FixedPoint(1, (-4, -3, 1, 2)),
            FixedPoint(2, (-5, -3, -1, 1)),
            FixedPoint(3, (-2, -2, -2, -5)),
        ),
    )


def swapped_weights(rng, n):
    """Standard data with two same-sign weights exchanged between points."""
    data = make_standard_g2(sample_exponents(rng, n, hi=12))
    weights = [list(p.weights) for p in data.points]
    i, j = rng.sample(range(n + 2), 2)
    a, b = rng.randrange(n), rng.randrange(n)
    if (weights[i][a] < 0) == (weights[j][b] < 0):
        weights[i][a], weights[j][b] = weights[j][b], weights[i][a]
    return FixedPointData(
        n,
        tuple(FixedPoint(p.phi, tuple(w)) for p, w in zip(data.points, weights)),
    )


def oracle_datasets():
    rng = random.Random(20150413)
    yield make_standard_g2([2, 1])
    yield make_standard_g2([3, 2, 1])
    yield make_standard_g2([7, 3, 2, 1])
    yield products_and_closure_variant()
    for _ in range(12):
        yield swapped_weights(rng, rng.choice([2, 4, 6]))


def test_engine_matches_naive_sums_on_accepted_and_rejected_data():
    verdicts = set()
    for data in oracle_datasets():
        degrees = range(data.n + 1)
        walked = list(localization_sums(data, degrees, with_u=True, with_chern=True))
        reference = naive_sums(data, degrees)
        assert walked == reference
        below_top = [total for a, parts, total in reference if a + sum(parts) < data.n]
        consistent = not any(below_top)
        assert localization_consistent(data) == consistent
        verdicts.add(consistent)
    assert verdicts == {True, False}
    assert validate(products_and_closure_variant()).passed


def test_engine_restricts_to_u_powers_or_chern_classes():
    data = products_and_closure_variant()
    full = list(localization_sums(data, range(5), with_u=True, with_chern=True))
    pure_u = list(localization_sums(data, range(1, 4), with_u=True, with_chern=False))
    assert pure_u == [m for m in full if m[1] == () and 1 <= m[0] <= 3]
    top = list(localization_sums(data, [4], with_u=False, with_chern=True))
    assert top == [m for m in full if m[0] == 0 and sum(m[1]) == 4]
