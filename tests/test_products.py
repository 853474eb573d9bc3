"""The predicted weight products: one rule for every point and every n.

``reference_predicted_products`` is the earlier form of
``solver.predicted_products``, which split the points into five cases,
guarded its quotients against a zero denominator and gave n = 2 the
four-gap products of the 4-dimensional case; it is kept verbatim as the
oracle. At n = 2 the two agree on profiles symmetric about the middle pair,
and on the others ``predicted_products`` raises, because the four-gap
products there have a nonzero localization sum of 1. The test also pins the
invariants the classifier relies on instead of its former per-point guards:
the negative product at point i has the sign (-1)^morse_pattern(n)[i], and
the positive product is a positive integer."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamfp import (
    InconsistentProfileError,
    MomentProfile,
    make_standard_g2,
    morse_pattern,
    predicted_products,
)


class DegenerateProfileError(ValueError):
    """A weight-product prediction has a vanishing denominator."""


def _exact_quotient(num: int, den: int, context: str) -> int:
    if den == 0:
        raise DegenerateProfileError(f"vanishing denominator in {context}")
    q, r = divmod(num, den)
    if r != 0:
        raise InconsistentProfileError(
            f"{context} predicts the fractional product {num}/{den}"
        )
    return q


def reference_predicted_products(profile: MomentProfile) -> list[tuple[int, int]]:
    """Predicted (negative product, positive product) at every point.

    Lower-half negative products and upper-half positive products are plain
    products of moment gaps; the remaining products divide by the summed gap
    to the middle pair, which requires dimension above 4. For n = 2 all four
    points are instead covered by the two-gap weight sets of the
    4-dimensional case.
    """
    n = profile.n
    phi = profile.phi
    m = n + 2
    half = n // 2

    if n == 2:
        return [
            (1, (phi[1] - phi[0]) * (phi[2] - phi[0])),
            (phi[0] - phi[1], phi[3] - phi[1]),
            (phi[0] - phi[2], phi[3] - phi[2]),
            ((phi[1] - phi[3]) * (phi[2] - phi[3]), 1),
        ]

    out = []
    for i in range(m):
        middle_gap = (phi[half] - phi[i]) + (phi[half + 1] - phi[i])
        if i <= half:
            neg = 1
            for j in range(i):
                neg *= phi[j] - phi[i]
        elif i == half + 1:
            neg = 1
            for j in range(half):
                neg *= phi[j] - phi[i]
        else:
            num = 1
            for j in range(i):
                num *= phi[j] - phi[i]
            neg = _exact_quotient(num, middle_gap, f"negative product at point {i}")
        if i >= half + 1:
            pos = 1
            for j in range(i + 1, m):
                pos *= phi[j] - phi[i]
        elif i == half:
            pos = 1
            for j in range(half + 2, m):
                pos *= phi[j] - phi[i]
        else:
            num = 1
            for j in range(i + 1, m):
                num *= phi[j] - phi[i]
            pos = _exact_quotient(num, middle_gap, f"positive product at point {i}")
        out.append((neg, pos))
    return out


@st.composite
def profiles(draw, ns=(2, 4, 6, 8, 10)):
    """n from ns, distinct moment values, and one profile in four with a
    tied middle pair."""
    n = draw(st.sampled_from(ns))
    tied = draw(st.integers(0, 3)) == 0
    size = n + 1 if tied else n + 2
    phi = sorted(
        draw(st.lists(st.integers(-40, 40), min_size=size, max_size=size, unique=True))
    )
    if tied:
        phi.insert(n // 2 + 1, phi[n // 2])
    return MomentProfile(n, tuple(phi))


def outcome(fn, profile):
    try:
        return fn(profile)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def assert_asymmetric_n2_profile_raises(profile):
    # the four-gap products integrate 1 to (a + b - c)^2 / (ab(c - a)(c - b))
    with pytest.raises(InconsistentProfileError, match="not symmetric"):
        predicted_products(profile)
    a, b, c = (v - profile.phi[0] for v in profile.phi[1:])
    reference = reference_predicted_products(profile)
    total = sum(Fraction(1, neg * pos) for neg, pos in reference)
    assert total == Fraction((a + b - c) ** 2, a * b * (c - a) * (c - b)) != 0


# Examples pin one profile whose products are all integers for each n, tied
# and untied, one whose positive product at point 0 is fractional, and one
# n = 2 profile that is not symmetric, tied and untied.
@settings(derandomize=True, max_examples=1000, deadline=None)
@given(profiles())
@example(MomentProfile(2, (-2, 0, 0, 2)))
@example(MomentProfile(4, (-3, -2, -1, 1, 2, 3)))
@example(MomentProfile(4, (-2, -1, 0, 0, 1, 2)))
@example(MomentProfile(6, (-4, -3, -2, -1, 1, 2, 3, 4)))
@example(MomentProfile(8, (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)))
@example(MomentProfile(10, (-6, -5, -4, -3, -2, 0, 0, 2, 3, 4, 5, 6)))
@example(MomentProfile(4, (-5, -2, -1, 1, 2, 3)))
@example(MomentProfile(2, (0, 3, 3, 4)))
@example(MomentProfile(2, (0, 1, 2, 4)))
def test_one_rule_matches_the_case_split(profile):
    phi = profile.phi
    if profile.n == 2 and phi[0] + phi[3] != phi[1] + phi[2]:
        assert_asymmetric_n2_profile_raises(profile)
        return
    got = outcome(predicted_products, profile)
    assert got == outcome(reference_predicted_products, profile)
    if isinstance(got, tuple):
        assert got[0] is InconsistentProfileError
        return
    for (neg, pos), lam in zip(got, morse_pattern(profile.n)):
        assert neg * (-1) ** lam > 0
        assert pos >= 1


def standard_profile(b):
    data = make_standard_g2(b)
    return MomentProfile(data.n, data.phis)


# Few untied profiles have integral products, so the examples pin standard
# profiles at n = 4..12, one of them with a tied middle pair.
@settings(derandomize=True, max_examples=1000, deadline=None)
@given(profiles(ns=(2, 4, 6, 8, 10, 12)))
@example(standard_profile((1, 2, 3)))
@example(standard_profile((1, 2, 4, 7)))
@example(standard_profile((2, 3, 5, 7, 11)))
@example(standard_profile((0, 1, 2, 5, 7)))
@example(standard_profile((1, 3, 4, 6, 8, 9)))
@example(standard_profile((1, 2, 3, 5, 8, 13, 21)))
def test_the_products_fix_every_integral_of_a_power_of_u(profile):
    # with h_P = phi_0 - phi_P, the sum of h_P^a / (neg_P * pos_P) is the
    # integral of u^a over the oriented 2-plane Grassmannian: 0 below the
    # top degree and 2 at a = n
    try:
        products = predicted_products(profile)
    except InconsistentProfileError:
        return
    n = profile.n
    h = [profile.phi[0] - v for v in profile.phi]
    sums = [
        sum(Fraction(h_p**a, neg * pos) for h_p, (neg, pos) in zip(h, products))
        for a in range(n + 1)
    ]
    assert sums == [0] * n + [2]
