import random
from collections import Counter
from hashlib import sha256
from itertools import combinations, combinations_with_replacement, product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamfp.localize
import hamfp.solver
from hamfp import (
    DataError,
    FixedPoint,
    FixedPointData,
    InconsistentProfileError,
    MomentProfile,
    check_symmetry,
    classify,
    elementary_symmetric,
    enumerate_candidates,
    localization_consistent,
    make_standard_g2,
    morse_pattern,
    point_invariants,
    predicted_products,
    standard_weights,
    validate,
)
from test_products import reference_predicted_products

SETTINGS = settings(derandomize=True, deadline=None)


def profile_of(data):
    return MomentProfile(data.n, data.phis)


def standard_data(ns, hi=30):
    """Standard data in dimension 2n for n drawn from ns, with n/2 + 1
    distinct exponents from 1..hi-1."""
    return st.sampled_from(ns).flatmap(
        lambda n: st.lists(
            st.integers(1, hi - 1),
            min_size=n // 2 + 1,
            max_size=n // 2 + 1,
            unique=True,
        )
    ).map(make_standard_g2)


def test_profile_requires_middle_tie_at_most():
    MomentProfile(2, (-2, 0, 0, 2))
    with pytest.raises(DataError):
        MomentProfile(2, (-2, -2, 1, 2))
    with pytest.raises(DataError):
        MomentProfile(2, (0, -1, 1, 2))
    with pytest.raises(DataError):
        MomentProfile(3, (0, 1, 2, 3, 4))


def test_predicted_products_n4_example():
    profile = MomentProfile(4, (-3, -2, -1, 1, 2, 3))
    products = predicted_products(profile)
    assert products[4][0] == -15  # (-5)(-4)(-3)(-1) / ((-3) + (-1))
    assert products[1][0] == -1  # single gap below the second point
    assert products[5][1] == 1  # empty product at the maximum


@settings(SETTINGS, max_examples=25)
@given(standard_data((2, 4, 6, 8, 10), hi=40))
def test_predicted_products_match_standard_data(data):
    predicted = predicted_products(profile_of(data))
    actual = [
        (
            point_invariants(data, i).lambda_minus,
            point_invariants(data, i).lambda_plus,
        )
        for i in range(data.n + 2)
    ]
    assert predicted == actual


def test_predicted_products_fractional_profile_raises():
    with pytest.raises(InconsistentProfileError):
        predicted_products(MomentProfile(4, (-5, -2, -1, 1, 2, 3)))


def test_enumerate_returns_empty_for_fractional_profile():
    assert enumerate_candidates(MomentProfile(4, (-5, -2, -1, 1, 2, 3))) == []


def test_check_symmetry():
    assert check_symmetry(MomentProfile(2, (-2, -1, 1, 2)))
    assert not check_symmetry(MomentProfile(2, (-2, -1, 0, 3)))
    # translation invariance
    assert check_symmetry(MomentProfile(2, (5, 6, 8, 9)))


@settings(SETTINGS, max_examples=25)
@given(standard_data((2, 4, 6)))
def test_standard_profiles_are_symmetric(data):
    assert check_symmetry(profile_of(data))


def test_enumerate_unique_standard_n2():
    profile = MomentProfile(2, (-2, -1, 1, 2))
    candidates = enumerate_candidates(profile)
    assert candidates == [make_standard_g2([2, 1])]


def test_enumerate_empty_for_asymmetric_profile():
    assert enumerate_candidates(MomentProfile(2, (-2, -1, 0, 3))) == []


def test_n2_box_filters_only_symmetric_profiles(monkeypatch):
    # every n = 2 profile with phi_0 = 0 and spread at most 24, middle ties
    # included: the 2,156 that are not symmetric about the middle pair get no
    # candidate before any gap is factored, so only the 144 symmetric ones
    # reach the final filter
    calls = []
    final_filter = hamfp.solver.validate

    def counted(data):
        calls.append(data)
        return final_filter(data)

    monkeypatch.setattr(hamfp.solver, "validate", counted)
    box = [
        MomentProfile(2, (0, a, b, c))
        for c in range(1, 25)
        for a in range(1, c)
        for b in range(a, c)
    ]
    symmetric = [p for p in box if check_symmetry(p)]
    assert (len(box), len(symmetric)) == (2300, 144)
    decided = {p: classify(p).candidates for p in box}
    assert len(calls) <= 187
    assert all(decided[p] for p in symmetric)
    assert not any(decided[p] for p in box if not check_symmetry(p))


@settings(SETTINGS, max_examples=20)
@given(standard_data((2, 4), hi=7))
def test_enumerate_soundness_and_default_bound(data):
    candidates = enumerate_candidates(profile_of(data))
    assert data in candidates
    for cand in candidates:
        assert validate(cand).passed


def test_enumerate_is_deterministic():
    profile = MomentProfile(4, (-3, -2, -1, 1, 2, 3))
    assert enumerate_candidates(profile) == enumerate_candidates(profile)


def test_enumerate_expands_each_option_once_per_call(monkeypatch):
    # the joins pack their keys without expanding any option, so only the
    # final filter expands, each option of the survivor once; a second call
    # expands them again, so nothing is kept between calls
    calls = Counter()

    def counted(values):
        calls[tuple(values)] += 1
        return elementary_symmetric(values)

    monkeypatch.setattr(hamfp.localize, "elementary_symmetric", counted)
    data = make_standard_g2([1, 3, 5, 7, 9])
    assert enumerate_candidates(profile_of(data)) == [data]
    first = dict(calls)
    assert set(first.values()) == {1}
    assert set(first) == {p.weights for p in data.points}
    calls.clear()
    assert enumerate_candidates(profile_of(data)) == [data]
    assert calls == first


@pytest.mark.parametrize("exponents, distinct", [((1, 3, 5, 7, 9), 9), ((2, 1), 4)])
def test_enumerate_factors_each_distinct_gap_once_per_call(
    monkeypatch, exponents, distinct
):
    # every gap is a gap at both its points, and mirror points share all
    # their gaps, yet each distinct gap is factored once per call
    factored = []
    tagged_divisors = hamfp.solver._tagged_divisors

    def recorded(g):
        factored.append(g)
        return tagged_divisors(g)

    monkeypatch.setattr(hamfp.solver, "_tagged_divisors", recorded)
    data = make_standard_g2(exponents)
    assert enumerate_candidates(profile_of(data)) == [data]
    gaps = {abs(a - b) for a in data.phis for b in data.phis if a != b}
    assert len(gaps) == distinct
    assert sorted(factored) == sorted(gaps)


def test_every_standard_n8_profile_is_unique_standard():
    # the 126 profiles of classify-std: five distinct exponents from 1..9
    for exponents in combinations(range(1, 10), 5):
        data = make_standard_g2(exponents)
        verdict = classify(profile_of(data))
        assert verdict.is_unique_standard, exponents
        assert verdict.candidates == (data,)


def sweep_profiles(seed, size):
    """Random n = 8 profiles with integral predicted products, moment values
    0 < ... < spread for a spread from 30..48, as in classify-sweep."""
    rng = random.Random(seed)
    family = []
    while len(family) < size:
        spread = rng.randint(30, 48)
        phi = (0, *sorted(rng.sample(range(1, spread), 8)), spread)
        profile = MomentProfile(8, phi)
        try:
            predicted_products(profile)
        except InconsistentProfileError:
            continue
        if profile not in family:
            family.append(profile)
    return family


def test_random_n8_profiles_keep_their_candidates_and_factorizations(monkeypatch):
    # Pinned digests of the candidate lists and of every factorization list
    # the search found, in the order found, for 20 random profiles; seed 9 is
    # the first from 1 whose family has a profile with a candidate. The
    # factorization lists change with any change to the search's results
    # even where, as for most such profiles, no candidate survives. The
    # pinned searches stop at a point without options: its positive product
    # is not searched when its negative one has no factorization, and no
    # later point is searched.
    found = []
    search = hamfp.solver._factorizations

    def recorded(*args):
        found.append(search(*args))
        return found[-1]

    monkeypatch.setattr(hamfp.solver, "_factorizations", recorded)
    family = sweep_profiles(9, 20)
    lists = [
        [[p.weights for p in c.points] for c in enumerate_candidates(profile)]
        for profile in family
    ]
    assert sum(map(len, lists)) == 1
    assert (len(found), sum(map(len, found))) == (318, 3650)
    assert sha256(repr(lists).encode()).hexdigest() == (
        "cbf1b9769ae8def9b2eccf335fa45da1e06aa5e92400725e84bbd1190ed02ca9"
    )
    assert sha256(repr(found).encode()).hexdigest() == (
        "ec5df7f48d00ed84716e81ba3a3e4aba609d7543618b009d4d222da2899f0972"
    )


@pytest.mark.parametrize(
    "n, phi",
    [(4, (0, 3, 6, 10, 12, 13)), (8, (0, 5, 7, 10, 11, 13, 14, 17, 18, 19))],
)
def test_the_first_point_without_options_ends_the_search(monkeypatch, n, phi):
    # P0's positive product (1755 = 3^3 * 5 * 13 into 4 parts at n = 4) has
    # no factorization over its gaps' divisors, so the search stops after
    # P0's two searches, and no later point's gaps are factored or searched
    searched, factored = [], []
    search = hamfp.solver._factorizations
    tagged_divisors = hamfp.solver._tagged_divisors

    def recorded_search(*args):
        searched.append(args)
        return search(*args)

    def recorded_gap(g):
        factored.append(g)
        return tagged_divisors(g)

    monkeypatch.setattr(hamfp.solver, "_factorizations", recorded_search)
    monkeypatch.setattr(hamfp.solver, "_tagged_divisors", recorded_gap)
    assert enumerate_candidates(MomentProfile(n, phi)) == []
    assert len(searched) == 2
    assert sorted(factored) == [v - phi[0] for v in phi[1:]]


def test_products_and_closure_alone_are_insufficient():
    # This assignment shares every per-point weight product with the standard
    # data of the profile (-3..3) and is closed under negation, so only the
    # localization of Chern monomials rejects it.
    variant = FixedPointData(
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
    assert validate(variant).passed
    assert not localization_consistent(variant)
    std = make_standard_g2([3, 2, 1])
    for i in range(6):
        got = point_invariants(variant, i)
        want = point_invariants(std, i)
        assert (got.lambda_minus, got.lambda_plus) == (
            want.lambda_minus,
            want.lambda_plus,
        )


def test_classify_verdicts():
    verdict = classify(MomentProfile(2, (-2, -1, 1, 2)))
    assert len(verdict.candidates) == 1
    assert verdict.is_unique_standard
    empty = classify(MomentProfile(2, (-2, -1, 0, 3)))
    assert empty.candidates == ()
    assert not empty.is_unique_standard


def test_classify_standard_match_uses_sorted_weights():
    data = make_standard_g2([3, 1])
    verdict = classify(profile_of(data))
    assert verdict.is_unique_standard
    expected = [
        tuple(sorted(standard_weights(data.phis, i))) for i in range(4)
    ]
    assert [tuple(sorted(p.weights)) for p in verdict.candidates[0].points] == expected


def test_classify_handles_a_spread_of_two_million():
    # the allowed weights come from the divisors of the moment gaps, not
    # from a scan of 1..spread
    data = make_standard_g2([10**6, 1])
    verdict = classify(profile_of(data))
    assert verdict.candidates == (data,)
    assert verdict.is_unique_standard


def test_classify_minimal_n8_profile_is_unique_standard():
    data = make_standard_g2([5, 4, 3, 2, 1])
    verdict = classify(profile_of(data))
    assert len(verdict.candidates) == 1
    assert verdict.is_unique_standard


def test_sigma2_passes_every_necessary_check_and_gets_no_candidate(sigma2):
    # at n = 2 the classifier's hypothesis fixes the class of the symplectic
    # form as well as the ring: the profile must be symmetric about its
    # middle pair, and Sigma_2's is not, as 0 + 4 differs from 3 + 3
    assert validate(sigma2).passed
    assert localization_consistent(sigma2)
    profile = profile_of(sigma2)
    assert profile.phi == (0, 3, 3, 4)
    assert not check_symmetry(profile)
    with pytest.raises(InconsistentProfileError) as raised:
        predicted_products(profile)
    assert str(raised.value).endswith("phi_0 + phi_3 = 4 but phi_1 + phi_2 = 6")
    assert classify(profile).candidates == ()


def test_middle_tie_profile_keeps_both_survivors():
    # With a tied middle pair the dimension-4 filters cannot separate the
    # standard weights {2,2}/{-2,-2} at the extremes from {1,4}/{-4,-1}:
    # both share the predicted products and every localization sum below the
    # top degree. The verdict honestly reports two candidates (the impostor
    # is still flagged by the Chern-expansion integrality check of verify).
    verdict = classify(MomentProfile(2, (-2, 0, 0, 2)))
    assert len(verdict.candidates) == 2
    assert not verdict.is_unique_standard
    weight_sets = [
        [tuple(sorted(p.weights)) for p in cand.points]
        for cand in verdict.candidates
    ]
    assert [(2, 2), (-2, 2), (-2, 2), (-2, -2)] in weight_sets
    assert [(1, 4), (-2, 2), (-2, 2), (-4, -1)] in weight_sets


def brute_force_candidates(profile, bound, divisibility=True):
    """enumerate_candidates without its pruning: each point takes every
    sorted weight tuple over 1..bound with the forced negative count and the
    predicted products, the cartesian product of those options is taken in
    full, and each assignment is kept if every weight divides a nonzero
    moment gap from its point, the weights are closed under negation, and
    validate and localization_consistent pass.

    At n = 2 the products come from the four-gap table of the 4-dimensional
    case, which an asymmetric profile does not refuse, so that the oracle
    searches where ``predicted_products`` declines to."""
    n, phi = profile.n, profile.phi
    if n == 2:
        products = reference_predicted_products(profile)
    else:
        try:
            products = predicted_products(profile)
        except InconsistentProfileError:
            return []
    magnitudes = range(1, bound + 1)
    options = []
    for lam, (neg_target, pos_target) in zip(morse_pattern(n), products):
        negs = [
            tuple(sorted(-v for v in c))
            for c in combinations_with_replacement(magnitudes, lam)
            if prod(-v for v in c) == neg_target
        ]
        poss = [
            c
            for c in combinations_with_replacement(magnitudes, n - lam)
            if prod(c) == pos_target
        ]
        options.append([a + b for a in negs for b in poss])
    found = []
    for assignment in product(*options):
        counts = Counter(w for weights in assignment for w in weights)
        if any(counts[w] != counts[-w] for w in counts):
            continue
        if divisibility and not all(
            any(p != q and (p - q) % w == 0 for q in phi)
            for p, weights in zip(phi, assignment)
            for w in weights
        ):
            continue
        data = FixedPointData(
            n, tuple(FixedPoint(p, w) for p, w in zip(phi, assignment))
        )
        if validate(data).passed and localization_consistent(data):
            found.append(data)
    return sorted(found, key=lambda d: [p.weights for p in d.points])


def test_brute_force_agrees_on_standard_profiles():
    nonempty = 0
    for n in (2, 4):
        for exponents in combinations(range(1, 6), n // 2 + 1):
            profile = profile_of(make_standard_g2(exponents))
            expected = brute_force_candidates(profile, profile.spread)
            assert enumerate_candidates(profile) == expected
            nonempty += bool(expected)
    assert nonempty >= 10


@st.composite
def small_profiles(draw):
    """Profiles at n = 2 or 4 with distinct moment values from -8..8, one in
    four with its middle pair tied."""
    n = draw(st.sampled_from((2, 4)))
    phi = sorted(
        draw(st.lists(st.integers(-8, 8), min_size=n + 2, max_size=n + 2, unique=True))
    )
    if draw(st.integers(0, 3)) == 0:
        phi[n // 2 + 1] = phi[n // 2]
    return MomentProfile(n, phi)


@settings(SETTINGS, max_examples=300)
@given(small_profiles())
def test_brute_force_agrees_on_random_profiles(profile):
    expected = brute_force_candidates(profile, profile.spread)
    assert enumerate_candidates(profile) == expected


def test_brute_force_needs_the_divisibility_check():
    # weight 6 at P0 divides none of its moment gaps 3, 4 and 7, so only the
    # divisibility hypothesis rules this assignment out
    profile = MomentProfile(2, (-1, 2, 3, 6))
    with_check = brute_force_candidates(profile, profile.spread)
    without = brute_force_candidates(profile, profile.spread, divisibility=False)
    extra = [[p.weights for p in d.points] for d in without if d not in with_check]
    assert extra == [[(2, 6), (-3, 4), (-4, 3), (-6, -2)]]
    assert enumerate_candidates(profile) == with_check
