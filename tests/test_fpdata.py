import re
from fractions import Fraction
from itertools import accumulate
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamfp import (
    DataError,
    FixedPoint,
    FixedPointData,
    InvalidGeneratorError,
    MomentProfile,
    make_standard_g2,
    morse_pattern,
    point_invariants,
    validate,
)
from conftest import standard_data

SETTINGS = settings(derandomize=True, max_examples=30, deadline=None)


def entry(report, name):
    """The report's result for the named check."""
    return next(c for c in report.checks if c.name == name)


def replace_weights(data, index, weights):
    points = list(data.points)
    points[index] = FixedPoint(points[index].phi, tuple(weights))
    return FixedPointData(data.n, tuple(points))


@pytest.mark.parametrize(
    "bad", [2.7, 2.0, Fraction(5, 2), Fraction(2), "2"],
    ids=["float", "whole-float", "fraction", "whole-fraction", "str"],
)
def test_make_standard_g2_refuses_non_integers(bad):
    message = re.escape(f"make_standard_g2.b: {bad!r} is not an integer")
    with pytest.raises(DataError, match=message):
        make_standard_g2([bad, 1])


def test_standard_dim4_weights(std2):
    assert std2.phis == (-2, -1, 1, 2)
    assert [p.weights for p in std2.points] == [(1, 3), (-1, 3), (-3, 1), (-3, -1)]


def test_standard_n4_weights(std4):
    assert std4.phis == (-3, -2, -1, 1, 2, 3)
    assert std4.points[0].weights == (1, 2, 4, 5)
    assert std4.points[2].weights == (-2, -1, 3, 4)
    assert std4.points[3].weights == (-4, -3, 1, 2)
    # cross-check by direct summation of reciprocal weight products
    total = sum(
        Fraction(1, point_invariants(std4, i).lambda_full) for i in range(6)
    )
    assert total == 0


def test_standard_is_order_insensitive():
    assert make_standard_g2([1, 2]) == make_standard_g2([2, 1])


def test_standard_rejects_bad_exponents():
    with pytest.raises(InvalidGeneratorError):
        make_standard_g2([1, 1])
    with pytest.raises(InvalidGeneratorError):
        make_standard_g2([3])
    # opposite exponents would collide moment values away from the middle
    with pytest.raises(InvalidGeneratorError):
        make_standard_g2([1, -1])


def test_standard_middle_tie_is_valid():
    data = make_standard_g2([2, 0])
    assert data.phis == (-2, 0, 0, 2)
    assert validate(data).passed


def test_structural_errors():
    with pytest.raises(DataError):
        FixedPoint(0, (1, 0))
    with pytest.raises(DataError):
        FixedPointData(3, (FixedPoint(0, (1, 1, 1)),) * 5)
    with pytest.raises(DataError):
        FixedPointData(2, (FixedPoint(0, (1,)),) * 4)


def test_validate_standard_passes(std2):
    report = validate(std2)
    assert report.passed
    assert [c.name for c in report.checks] == [
        "phi-order",
        "morse-index",
        "negation-closure",
        "index-bound",
        "localization-of-one",
    ]


def test_validate_detects_min_point_swap(std2):
    # swapping the weight multisets of P0 and P1 moves a negative count
    tampered = replace_weights(
        replace_weights(std2, 0, std2.points[1].weights),
        1,
        std2.points[0].weights,
    )
    report = validate(tampered)
    assert not report.passed
    assert not entry(report, "morse-index").passed


def test_validate_detects_weight_replacement(std2):
    # weight 3 at P0 replaced by 4: the reciprocal sum becomes 1/4 - 1/3
    tampered = replace_weights(std2, 0, (1, 4))
    report = validate(tampered)
    assert not report.passed
    assert not entry(report, "negation-closure").passed
    assert not entry(report, "localization-of-one").passed
    assert "-1/12" in entry(report, "localization-of-one").detail


def test_validate_middle_pair_swap_is_invisible(std2):
    # Swapping the weight multisets of the two middle points preserves every
    # quantity these checks see (counts, products, the global multiset), so
    # the report passes; only ring-hypothesis constraints reject such data.
    tampered = replace_weights(
        replace_weights(std2, 1, std2.points[2].weights),
        2,
        std2.points[1].weights,
    )
    assert validate(tampered).passed


def test_validate_detects_disorder(std2):
    points = list(std2.points)
    points[0], points[3] = points[3], points[0]
    report = validate(FixedPointData(2, tuple(points)))
    assert not entry(report, "phi-order").passed


def moment_values_and_weights():
    """(n, phis, weights): phi steps from -2 to 8, so ties and falls occur at
    the middle step and away from it, and nonzero weights at every point."""
    nonzero = st.integers(-9, -1) | st.integers(1, 9)
    return st.sampled_from((2, 4, 6)).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.tuples(st.integers(-5, 5), *[st.integers(-2, 8)] * (n + 1)),
            st.tuples(*[st.tuples(*[nonzero] * n)] * (n + 2)),
        )
    ).map(lambda t: (t[0], tuple(accumulate(t[1])), t[2]))


def first_index(message):
    return int(re.match(r"phi\[(\d+)\]=", message).group(1))


@settings(SETTINGS, max_examples=400)
@given(moment_values_and_weights())
@example((2, (0, 1, 1, 2), [[1, 1]] * 4))  # tie at the middle step
@example((4, (0, 1, 1, 2, 3, 4), [[1] * 4] * 6))  # tie away from it
@example((4, (0, 1, 2, 1, 3, 4), [[-1] * 4] * 6))  # fall at the middle step
@example((2, (0, 1, 2, 1), [[2, -3]] * 4))  # fall away from it
def test_profile_refuses_exactly_the_phi_order_failures(case):
    n, phis, weights = case
    data = FixedPointData(n, tuple(map(FixedPoint, phis, weights)))
    check = entry(validate(data), "phi-order")
    try:
        MomentProfile(n, phis)
    except DataError as exc:
        assert not check.passed
        first = check.detail.split("; ")[0]
        assert first_index(str(exc)) == first_index(first)
        assert str(exc) in (first, first + " away from the middle pair")
    else:
        assert check.passed


@settings(SETTINGS, max_examples=400)
@given(moment_values_and_weights())
@example((4, (0, 1, 1, 2, 3, 4), [[-1] * 4] * 6))  # tie away from the middle
@example((2, (3, 1, 2, 0), [[-1, -1]] * 4))  # every point out of order
def test_index_checks_match_a_count_over_every_pair(case):
    # the index of each point against a scan of every moment value, in any
    # order of the values and with ties, and the Morse pattern against the
    # negative counts taken one point at a time
    n, phis, weights = case
    report = validate(FixedPointData(n, tuple(map(FixedPoint, phis, weights))))
    indices = [sum(w < 0 for w in ws) for ws in weights]
    bad = []
    for i, (phi, index) in enumerate(zip(phis, indices)):
        below = sum(q < phi for q in phis)
        if index > below:
            bad.append(f"point {i}: index {index} exceeds {below} points below")
    bound = entry(report, "index-bound")
    assert bound.passed == (not bad)
    assert bound.detail == (
        "; ".join(bad) or "each index is bounded by the count of points below"
    )
    pattern = morse_pattern(n)
    morse = entry(report, "morse-index")
    assert morse.passed == (tuple(indices) == pattern)
    assert morse.detail == (
        f"negative-weight counts follow the pattern {pattern}"
        if morse.passed
        else f"negative-weight counts {tuple(indices)} differ from required {pattern}"
    )


def test_point_invariants_examples(std2):
    inv0 = point_invariants(std2, 0)
    assert (inv0.gamma, inv0.lambda_full, inv0.lambda_minus, inv0.lambda_plus) == (
        4,
        3,
        1,
        3,
    )
    inv1 = point_invariants(std2, 1)
    assert (inv1.gamma, inv1.lambda_full, inv1.lambda_minus, inv1.lambda_plus) == (
        2,
        -3,
        -1,
        3,
    )
    with pytest.raises(IndexError):
        point_invariants(std2, 4)


@st.composite
def random_datasets(draw):
    """n from 2..8 and n + 2 points of nonzero weights up to 10^30 in size;
    the moment values are not ordered, since construction checks only
    structure."""
    n = draw(st.sampled_from((2, 4, 6, 8)))
    weight = st.integers(-(10**30), -1) | st.integers(1, 10**30)
    weights = st.lists(weight, min_size=n, max_size=n).map(tuple)
    points = st.builds(FixedPoint, st.integers(-50, 50), weights)
    return FixedPointData(n, draw(st.lists(points, min_size=n + 2, max_size=n + 2)))


@settings(SETTINGS, max_examples=200)
@given(random_datasets())
def test_point_invariants_are_the_weight_sum_and_products(data):
    for i, p in enumerate(data.points):
        inv = point_invariants(data, i)
        assert inv.gamma == sum(p.weights)
        assert inv.lambda_full == prod(p.weights)
        assert inv.lambda_minus == prod([w for w in p.weights if w < 0])
        assert inv.lambda_plus == prod([w for w in p.weights if w > 0])


@SETTINGS
@given(standard_data())
def test_minimum_point_has_trivial_negative_product(data):
    assert point_invariants(data, 0).lambda_minus == 1


@SETTINGS
@given(standard_data())
def test_first_chern_ratio_is_n(data):
    n = data.n
    gammas = [point_invariants(data, i).gamma for i in range(n + 2)]
    phis = data.phis
    for i in range(n + 2):
        for j in range(n + 2):
            if phis[i] != phis[j]:
                ratio = Fraction(gammas[i] - gammas[j], phis[j] - phis[i])
                assert ratio == n


@SETTINGS
@given(standard_data(ns=(2,)))
def test_dim4_gap_identity(data):
    phis = data.phis
    assert phis[3] - phis[2] == phis[1] - phis[0]


@SETTINGS
@given(standard_data(ns=(2, 4, 6, 8)))
def test_negation_closure_of_standard_data(data):
    n = data.n
    counts = data.all_weights()
    assert all(counts[w] == counts[-w] for w in counts)
    assert sum(counts.values()) == n * (n + 2)


def test_morse_pattern_values():
    assert morse_pattern(2) == (0, 1, 1, 2)
    assert morse_pattern(4) == (0, 1, 2, 2, 3, 4)


@SETTINGS
@given(standard_data(ns=(2, 4, 6, 8)))
def test_validate_full_pass_for_random_standard_data(data):
    assert validate(data).passed


@SETTINGS
@given(standard_data(ns=(2, 4, 6, 8)), st.data())
def test_unit_localization_matches_a_fraction_sum(data, draws):
    # one weight one magnitude up, same sign: never zero and the same Morse
    # index, but the reciprocal weight products no longer cancel
    point = draws.draw(st.integers(0, data.n + 1))
    k = draws.draw(st.integers(0, data.n - 1))
    weights = list(data.points[point].weights)
    weights[k] += 1 if weights[k] > 0 else -1
    for case in (data, replace_weights(data, point, weights)):
        total = sum((Fraction(1, prod(p.weights)) for p in case.points), Fraction(0))
        check = entry(validate(case), "localization-of-one")
        assert check.passed == (total == 0)
        if total:
            assert check.detail == (
                f"sum of reciprocal weight products is {total}, expected 0"
            )
        else:
            assert check.detail == "sum of reciprocal weight products vanishes"
