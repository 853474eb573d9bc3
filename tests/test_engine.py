"""The localization engine against oracles that do not use it.

Oracle 1 is the quadric: the standard data is the circle action on the
oriented 2-plane Grassmannian, the quadric Q_n, with c(TQ_n) =
(1+x)^(n+2)/(1+2x) and integral of x^n equal to 2. Oracle 2 is the naive
sum over restriction tuples, monomial by monomial. Exponents and weight
swaps are drawn with ``hypothesis``.
"""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamfp import (
    FixedPoint,
    FixedPointData,
    NotAManifoldError,
    chern_number,
    chern_restriction,
    integrate,
    localization_consistent,
    make_standard_g2,
    point_invariants,
    symplectic_class,
    validate,
)
from hamfp.localize import localization_sums, partition_count

from conftest import quadric_chern_coefficients, standard_data, swapped_weights
from oracle import multiply, partitions, power

SETTINGS = settings(derandomize=True, max_examples=5, deadline=None)


def quadric_numbers(n):
    """Chern number of every partition of n on Q_n: 2 * prod(a_k), where
    (1+x)^(n+2)/(1+2x) = sum a_k x^k."""
    a = quadric_chern_coefficients(n)
    return {p: 2 * math.prod(a[k] for k in p) for p in partitions(n)}


@pytest.mark.parametrize("n", [*range(2, 13, 2), 20, 24])
@SETTINGS
@given(drawn=st.data())
def test_chern_numbers_match_the_quadric(n, drawn):
    size = n // 2 + 1
    sample = drawn.draw(
        st.lists(st.integers(1, 29), min_size=size, max_size=size, unique=True)
    )
    expected = quadric_numbers(n)
    for exponents in (range(size, 0, -1), sample):
        data = make_standard_g2(list(exponents))
        grid = localization_sums(data, [n], with_u=False, with_chern=True)
        got = {parts: value for a, parts, value in grid if a == 0}
        assert got == expected
        if n <= 8:
            assert {p: chern_number(data, p) for p in expected} == expected


def naive_sums(data, degrees):
    """(a, parts, integral) from restriction tuples, degree ascending and
    u-power descending as the engine yields them, partitions as listed."""
    u = symplectic_class(data)
    chern = {i: chern_restriction(data, i) for i in range(1, data.n + 1)}
    out = []
    for d in degrees:
        for a in range(d, -1, -1):
            for parts in partitions(d - a):
                cls = power(u, a)
                for p in parts:
                    cls = multiply(cls, chern[p])
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


def blocks(stream):
    """The (d, a) block of every monomial, in stream order."""
    return [(a + sum(parts), a) for a, parts, _ in stream]


def assert_same_stream(walked, reference):
    """Equal as multisets, with the (d, a) blocks in the same order: the
    order of the partitions within a block is unspecified."""
    assert Counter(walked) == Counter(reference)
    assert blocks(walked) == blocks(reference)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_engine_covers_every_partition_once_per_block(n):
    data = make_standard_g2(list(range(n // 2 + 1, 0, -1)))
    degrees = range(n + 1)
    walked = list(localization_sums(data, degrees, with_u=True, with_chern=True))
    by_block = {}
    for (d, a), (_, parts, _) in zip(blocks(walked), walked):
        assert list(parts) == sorted(parts, reverse=True)
        assert all(p >= 1 for p in parts)
        by_block.setdefault((d, a), []).append(parts)
    for (d, a), block in by_block.items():
        assert len(set(block)) == len(block) == partition_count(d - a)
    assert_same_stream(walked, naive_sums(data, degrees))


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


def assert_engine_matches_naive_sums(data):
    """Compare the engine with the naive sums over every degree up to n, and
    return the verdict of the sums below the top degree."""
    degrees = range(data.n + 1)
    walked = list(localization_sums(data, degrees, with_u=True, with_chern=True))
    reference = naive_sums(data, degrees)
    assert_same_stream(walked, reference)
    below_top = [total for a, parts, total in reference if a + sum(parts) < data.n]
    consistent = not any(below_top)
    assert localization_consistent(data) == consistent
    return consistent


def test_engine_matches_naive_sums_on_accepted_and_rejected_data():
    datasets = [
        make_standard_g2([2, 1]),
        make_standard_g2([3, 2, 1]),
        make_standard_g2([7, 3, 2, 1]),
        products_and_closure_variant(),
    ]
    verdicts = {assert_engine_matches_naive_sums(data) for data in datasets}
    assert verdicts == {True, False}
    assert validate(products_and_closure_variant()).passed


@settings(SETTINGS, max_examples=30)
@given(swapped_weights())
def test_engine_matches_naive_sums_on_swapped_weights(data):
    assert_engine_matches_naive_sums(data)


@settings(SETTINGS, max_examples=30)
@given(st.one_of(standard_data(ns=(2, 4, 6)), swapped_weights(ns=(2, 4, 6))))
def test_engine_yields_fractions_equal_to_naive_sums(data):
    # exact sums are divided without a gcd; the value must still be a
    # Fraction, and fractional sums (swapped weights) must stay exact
    degrees = range(data.n + 1)
    walked = list(localization_sums(data, degrees, with_u=True, with_chern=True))
    assert all(type(total) is Fraction for _, _, total in walked)
    assert_same_stream(walked, naive_sums(data, degrees))


@pytest.mark.parametrize(
    "degree, with_chern, message",
    [
        (-1, False, "negative half-degree -1"),
        (-1, True, "negative half-degree -1"),
        (5, True, "half-degree 5 of a Chern monomial exceeds n=4"),
    ],
    ids=["negative-u", "negative-chern", "chern-above-n"],
)
def test_engine_refuses_half_degrees_out_of_range(std4, degree, with_chern, message):
    # the degrees before the bad one are still yielded, and none of its own
    sums = localization_sums(std4, [1, degree], with_u=True, with_chern=with_chern)
    head = [next(sums) for _ in range(1 + with_chern)]
    assert all(a + sum(parts) == 1 for a, parts, _ in head)
    with pytest.raises(ValueError, match=message):
        next(sums)


@pytest.mark.parametrize("degree", [0, 1])
def test_engine_refuses_to_integrate_neither_u_nor_chern_classes(std4, degree):
    # it once yielded the integral of 1 at degree 0 and nothing above it
    sums = localization_sums(std4, [degree], with_u=False, with_chern=False)
    with pytest.raises(ValueError, match="nothing to integrate"):
        next(sums)


def test_engine_pushes_forward_u_powers_above_the_top_degree(std4):
    u = symplectic_class(std4)
    pushed = list(localization_sums(std4, [5, 6], with_u=True, with_chern=False))
    assert pushed == [(d, (), integrate(std4, power(u, d))) for d in (5, 6)]


def test_engine_restricts_to_u_powers_or_chern_classes():
    data = products_and_closure_variant()
    full = list(localization_sums(data, range(5), with_u=True, with_chern=True))
    pure_u = list(localization_sums(data, range(1, 4), with_u=True, with_chern=False))
    assert pure_u == [m for m in full if m[1] == () and 1 <= m[0] <= 3]
    top = list(localization_sums(data, [4], with_u=False, with_chern=True))
    assert Counter(top) == Counter(m for m in full if m[0] == 0 and sum(m[1]) == 4)
