"""The localization engine against oracles that do not use it.

Oracle 1 is the quadric: the standard data is the circle action on the
oriented 2-plane Grassmannian, the quadric Q_n, with c(TQ_n) =
(1+x)^(n+2)/(1+2x) and integral of x^n equal to 2. Oracle 2 is the naive
sum over restriction tuples, monomial by monomial; on datasets whose weight
sums are affine in the moment values it also checks the c_1 lemma that lets
``localization_consistent`` skip every partition with a part 1. Exponents,
weight swaps and weight shifts are drawn with ``hypothesis``; two datasets
are built on a Chern table patched in, so that only one Chern monomial just
below the top degree integrates to a nonzero value: a two-part one, and
c_1^3, which ``localization_consistent`` closes only from a leaf. Fixed
datasets reach each case of the Chern-number grid's merge of rows: equal
rows, a row that is its own flip, an antipodal pair, and a broken pair; the
number of rows the grid walks is pinned on each, and on the std16, frac6
and frac4 datasets of ``tests/golden``. The one partition walk, ``_walk``,
yields each internal node with the last parts of its leaves, which are
never pushed: with its leaves closed from their node it must close every
partition within its room once, and its counts of nodes and leaves are
pinned. The grid must close every partition once, under its label, and
match ``chern_number``, which does not use the grid, where rows stay
unmerged.
"""

import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hamfp.localize
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
from hamfp.dataio import data_from_document, load_document
from hamfp.localize import (
    _merge_flips,
    _walk,
    chern_table,
    labelled_chern_numbers,
    partition_count,
    u_power_integrals,
)

from conftest import (
    exact_type,
    quadric_chern_coefficients,
    standard_data,
    swapped_weights,
)
from oracle import multiply, partitions, power

SETTINGS = settings(derandomize=True, max_examples=5, deadline=None)
GOLDEN = Path(__file__).resolve().parent / "golden"


def quadric_numbers(n):
    """Chern number of every partition of n on Q_n: 2 * prod(a_k), where
    (1+x)^(n+2)/(1+2x) = sum a_k x^k."""
    a = quadric_chern_coefficients(n)
    return {p: 2 * math.prod(a[k] for k in p) for p in partitions(n)}


def chern_grid(data):
    """The Chern-number grid as {parts: value}, its labels dropped."""
    return {parts: value for parts, _, value in labelled_chern_numbers(data)}


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
        assert chern_grid(data) == expected
        if n <= 8:
            assert {p: chern_number(data, p) for p in expected} == expected


def naive_sums(data, degrees):
    """(a, parts, integral) from restriction tuples, degree ascending and
    u-power descending, partitions as listed."""
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
                    value = integrate(data, cls)
                    assert value == total and exact_type(value)
                out.append((a, parts, Fraction(total)))
    return out


def assert_engine_matches_naive_sums(data):
    """Compare the Chern numbers and the integrals of u^0..u^n with the
    naive sums, and ``localization_consistent`` with the verdict of the
    naive sums below the top degree; return that verdict."""
    n = data.n
    reference = naive_sums(data, range(n + 1))
    numbers = chern_grid(data)
    assert numbers == {
        parts: total for a, parts, total in reference if a == 0 and sum(parts) == n
    }
    integrals = u_power_integrals(data)
    assert integrals == [total for _, parts, total in reference if parts == ()]
    assert all(exact_type(v) for v in integrals + list(numbers.values()))
    below_top = [total for a, parts, total in reference if a + sum(parts) < n]
    consistent = not any(below_top)
    assert localization_consistent(data) == consistent
    return consistent


@pytest.mark.parametrize("n", [4, 8, 16])
def test_engine_covers_every_partition_once_per_block(n):
    # the Chern numbers are the one block left: every partition of n, once,
    # its parts written largest first
    data = make_standard_g2(list(range(n // 2 + 1, 0, -1)))
    walked = [parts for parts, _, _ in labelled_chern_numbers(data)]
    assert len(walked) == partition_count(n)
    assert sorted(walked) == sorted(partitions(n))
    assert_engine_matches_naive_sums(data)


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


def merged_rows_variant():
    # the Chern-number grid merges the Chern rows of P0 and P1, which are
    # equal, and of P3, the antipode of P0, whose row is their flip; the
    # weights of P2 are closed under negation, so its row is its own flip
    return FixedPointData(
        2,
        (
            FixedPoint(0, (1, 2)),
            FixedPoint(1, (1, 2)),
            FixedPoint(2, (-1, 1)),
            FixedPoint(3, (-2, -1)),
        ),
    )


def golden_data(name):
    return data_from_document(load_document(str(GOLDEN / f"{name}.json")))


def test_engine_matches_naive_sums_on_accepted_and_rejected_data(monkeypatch):
    # each dataset with the number of Chern rows the grid walks after
    # merging every row with its flip: one per antipodal pair of the
    # standard data, one more for each pair a variant breaks
    std = make_standard_g2([5, 2, 1])
    datasets = [
        (make_standard_g2([2, 1]), 2),
        (make_standard_g2([3, 2, 1]), 3),
        (make_standard_g2([7, 3, 2, 1]), 4),
        (products_and_closure_variant(), 3),
        (merged_rows_variant(), 2),
        # one antipodal pair broken, and the same pair kept
        (shifted(std, 2, (0, 1), 1, antipodal=False), 4),
        (shifted(std, 2, (0, 1), 1, antipodal=True), 3),
        (golden_data("std16"), 9),
        (golden_data("frac6"), 5),
        (golden_data("frac4"), 4),
    ]
    rows = []
    merge = hamfp.localize._merge_flips

    def counted(table, scales):
        merged = merge(table, scales)
        rows.append(len(merged))
        return merged

    monkeypatch.setattr(hamfp.localize, "_merge_flips", counted)
    verdicts = set()
    for data, merged in datasets:
        rows.clear()
        list(labelled_chern_numbers(data))
        assert rows == [merged]
        verdicts.add(assert_engine_matches_naive_sums(data))
    assert verdicts == {True, False}
    assert validate(products_and_closure_variant()).passed


@settings(SETTINGS, max_examples=30)
@given(swapped_weights())
def test_engine_matches_naive_sums_on_swapped_weights(data):
    assert_engine_matches_naive_sums(data)


@settings(SETTINGS, max_examples=30)
@given(st.one_of(standard_data(ns=(2, 4, 6)), swapped_weights(ns=(2, 4, 6))))
def test_engine_yields_fractions_equal_to_naive_sums(data):
    # exact sums are divided without a gcd and come back as ints, and
    # fractional sums (swapped weights) must stay exact Fractions
    assert_engine_matches_naive_sums(data)


@pytest.mark.parametrize("name", ["frac4", "frac6"])
def test_engine_returns_a_fraction_only_off_the_integers(name):
    # the golden fractional data reach both branches of the rule in each
    # of labelled_chern_numbers, u_power_integrals and chern_number
    data = golden_data(name)
    numbers = chern_grid(data)
    values = [*numbers.values(), *u_power_integrals(data)]
    values += [chern_number(data, parts) for parts in numbers]
    assert all(exact_type(v) for v in values)
    assert {type(v) for v in values} == {int, Fraction}


def walk_tree(room, smallest):
    """Every closing of ``_walk`` with room and smallest part as given, on
    columns e_k = k, so each products entry is the product of the parts:
    (internal nodes, leaves, partitions closed). A node closes with each
    last part from its smallest part to its room, a leaf q in the same way
    from the node's products times e_q, and the root also closes the empty
    partition."""
    columns = [[k] for k in range(room + 1)]
    nodes, leaf_count, closed = 0, 0, [()]
    for products, free, least, parts, leaves in _walk(columns, room, smallest):
        assert products == [math.prod(parts)]
        assert free == room - sum(parts) and least == (parts[0] if parts else smallest)
        nodes += 1
        leaf_count += len(leaves)
        ends = [(parts, free, least)]
        for q in leaves:
            # a leaf can take no further part, and is never pushed
            assert least <= q <= free - q < 2 * q
            ends.append(((q,) + parts, free - q, q))
        for ended, left, low in ends:
            closed += [(r,) + ended for r in range(low, left + 1)]
    return nodes, leaf_count, closed


@pytest.mark.parametrize("room", range(9))
@pytest.mark.parametrize("smallest", [1, 2, 3])
def test_walk_closes_every_partition_within_its_room_once(room, smallest):
    _, _, closed = walk_tree(room, smallest)
    expected = [
        p
        for k in range(room + 1)
        for p in partitions(k)
        if min(p, default=smallest) >= smallest
    ]
    assert sorted(closed) == sorted(expected)


@pytest.mark.parametrize(
    "room, smallest, nodes, leaves",
    [(16, 1, 96, 135), (40, 1, 11_323, 26_015), (7, 2, 2, 2)],
)
def test_walk_yields_internal_nodes_and_their_leaves(room, smallest, nodes, leaves):
    # with room n and smallest part 1, every node and every leaf closes one
    # partition of n: 96 + 135 = p(16) and 11,323 + 26,015 = p(40)
    assert walk_tree(room, smallest)[:2] == (nodes, leaves)


@pytest.mark.parametrize("n", range(2, 25, 2))
def test_grid_closes_each_partition_once_with_its_label(n):
    # leaves are closed from their parent, not pushed: a leaf closed at the
    # wrong room would repeat or drop a partition
    data = make_standard_g2(list(range(n // 2 + 1, 0, -1)))
    labelled = list(labelled_chern_numbers(data))
    assert len(labelled) == partition_count(n)
    assert sorted(parts for parts, _, _ in labelled) == sorted(partitions(n))
    for parts, label, _ in labelled:
        assert label == "{" + ",".join(str(p) for p in parts) + "}"


def broken_pair(n):
    """Standard data whose first antipodal pair keeps its weights at one
    point only, so the two points' Chern rows are walked apart."""
    data = make_standard_g2(list(range(n // 2 + 1, 0, -1)))
    broken = shifted(data, 0, (0, n - 1), 1, antipodal=False)
    assert len(_merge_flips(chern_table(broken), [1] * (n + 2))) == n // 2 + 2
    return broken


@pytest.mark.parametrize("name", ["broken6", "broken8", "frac6"])
def test_grid_values_match_one_integral_per_partition(name):
    # chern_number integrates one class through integrate, without the grid
    data = golden_data(name) if name == "frac6" else broken_pair(int(name[-1]))
    for parts, _, value in labelled_chern_numbers(data):
        assert value == chern_number(data, parts) and exact_type(value)


def shifted(data, point, pair, delta, antipodal):
    """The dataset with the weights ``pair`` at ``point`` moved by +delta and
    -delta, so every weight sum is kept; with ``antipodal``, the negations of
    the two old weights at the antipodal point move to match, which keeps
    the negation closure of standard data. None if a weight becomes 0."""
    weights = [list(p.weights) for p in data.points]
    x, y = (weights[point][k] for k in pair)
    weights[point][pair[0]] += delta
    weights[point][pair[1]] -= delta
    if antipodal:
        opposite = weights[data.n + 1 - point]
        opposite[opposite.index(-x)] -= delta
        opposite[opposite.index(-y)] += delta
    if 0 in (w for ws in weights for w in ws):
        return None
    return FixedPointData(
        data.n,
        tuple(FixedPoint(p.phi, tuple(w)) for p, w in zip(data.points, weights)),
    )


@st.composite
def affine_weight_sums(draw, ns=(2, 4, 6, 8)):
    """Standard data with two weights at one point shifted by +-delta, with
    and without the matching change at the antipodal point. Standard weight
    sums are affine in the moment values, and the shift keeps every sum, so
    e_1 stays affine in the height: ``localization_consistent`` skips the
    partitions with a part 1. A delta that exchanges the two weights gives
    the standard data back, which every check accepts."""
    data = draw(standard_data(ns=ns, hi=12))
    point = draw(st.integers(0, data.n + 1))
    pair = tuple(draw(st.permutations(range(data.n)))[:2])
    x, y = (data.points[point].weights[k] for k in pair)
    delta = draw(st.sampled_from([y - x, -3, -2, -1, 1, 2, 3]))
    variant = shifted(data, point, pair, delta, draw(st.booleans()))
    assume(variant is not None)
    return variant


def affine_coefficients(data):
    """alpha and beta with e_1(P) = alpha + beta * h_P at every point P, h_P
    = phi_0 - phi_P, read off the weight sums as exact Fractions."""
    sums = [sum(p.weights) for p in data.points]
    heights = [data.points[0].phi - p.phi for p in data.points]
    q = max(range(len(heights)), key=lambda i: abs(heights[i]))
    alpha = Fraction(sums[0])
    beta = Fraction(sums[q] - sums[0], heights[q])
    assert all(alpha + beta * h == e for e, h in zip(sums, heights))
    return alpha, beta


def below_top_verdict(data):
    """True iff no naive sum below the top degree is nonzero."""
    return not any(total for _, _, total in naive_sums(data, range(data.n)))


@settings(SETTINGS, max_examples=40)
@given(affine_weight_sums())
def test_consistency_on_affine_weight_sums_matches_naive_sums(data):
    affine_coefficients(data)
    assert localization_consistent(data) == below_top_verdict(data)


def test_affine_weight_sums_reach_both_verdicts():
    # the c_1 skip is active on every dataset here; exchanging the two
    # weights gives the standard data back, and a shift by 1 breaks it
    std = make_standard_g2([5, 2, 1])
    verdicts = set()
    for point in range(std.n + 2):
        x, y = std.points[point].weights[:2]
        for delta in (y - x, 1):
            for antipodal in (False, True):
                data = shifted(std, point, (0, 1), delta, antipodal)
                if data is not None:
                    affine_coefficients(data)
                    verdict = localization_consistent(data)
                    assert verdict == below_top_verdict(data)
                    verdicts.add(verdict)
    assert verdicts == {True, False}


@settings(SETTINGS, max_examples=20)
@given(affine_weight_sums())
def test_c1_lemma_on_affine_weight_sums(data):
    # S(u^a c_1 c_mu) = alpha S(u^a c_mu) + beta S(u^(a+1) c_mu), from the
    # naive sums alone: the identity that lets the check skip c_1
    alpha, beta = affine_coefficients(data)
    sums = {(a, parts): total for a, parts, total in naive_sums(data, range(data.n))}
    with_c1 = [(a, parts) for a, parts in sums if 1 in parts]
    assert with_c1
    for a, parts in with_c1:
        mu = parts[: parts.index(1)] + parts[parts.index(1) + 1 :]
        assert sums[a, parts] == alpha * sums[a, mu] + beta * sums[a + 1, mu]


@pytest.mark.parametrize(
    "weights",
    [
        [(-4, -4), (-4, 2), (-4, -2), (-4, 4)],
        [(-4, -4), (-4, -2), (-4, 1), (4, 4)],
        [(-4, -4), (-4, -4), (-4, -2), (-4, 1)],
        [(-3, 1), (-3, 1), (-3, 1), (-1, -1)],
        [(-4, -4), (-4, -2), (-4, 2), (-4, 4)],
    ],
    ids=["c1-only", "u-only", "u-and-c1", "affine-u-only", "affine-u-and-c1"],
)
def test_consistency_reaches_the_sums_just_below_the_top_degree(weights):
    # the integral of 1 vanishes, so only u or c_1, of degree n - 1, is nonzero
    data = FixedPointData(2, tuple(map(FixedPoint, (-2, -1, 1, 2), weights)))
    assert sum(Fraction(1, math.prod(w)) for w in weights) == 0
    assert localization_consistent(data) is below_top_verdict(data) is False


@pytest.mark.parametrize(
    "weights, verdict",
    [
        ([(1, 1), (-1, 3), (3, -1), (-1, 3)], True),
        ([(1, 2), (-1, 4), (5, -2), (-3, 6)], False),
        ([(1, 1), (-1, 1), (1, 2), (-1, 2)], False),
    ],
    ids=["constant-e1", "constant-e1-rejected", "varying-e1"],
)
def test_consistency_with_every_moment_value_equal(weights, verdict):
    # every height h_P is 0, so e_1 is affine in it only when it is constant;
    # the last dataset is rejected by the integral of c_1 alone
    data = FixedPointData(2, tuple(FixedPoint(0, w) for w in weights))
    assert localization_consistent(data) is below_top_verdict(data) is verdict


def test_consistency_reaches_a_two_part_chern_monomial_just_below_the_top_degree(
    monkeypatch,
):
    # n = 6, four pairs of points: the two points of a pair share a moment
    # value and have opposite Lambda, and their Chern tables differ only in
    # e_3, by delta. So every sum without c_3 cancels pair by pair, and the
    # others are sums of delta / Lambda = -4 * (1, -3, 3, -1), a third
    # difference, times the rest of the monomial. With e_1 = 3 + 2h affine
    # in h = (0, -1, -2, -3) that is 0 for every monomial but c_3 c_2.
    heights, products = (0, -1, -2, -3), (1, 2, 3, 5)
    deltas, e2 = (-4, 24, -36, 20), (0, 0, 0, 7)
    table, points = {}, []
    for h, lam, delta, e in zip(heights, products, deltas, e2):
        for sign, e3 in ((1, 0), (-1, delta)):
            weights = (sign * lam, 1, 1, 1, 1, 1)
            table[weights] = [1, 3 + 2 * h, e, e3, 0, 0, sign * lam]
            points.append(FixedPoint(-h, weights))
    monkeypatch.setattr(hamfp.localize, "elementary_symmetric", lambda w: table[w])
    data = FixedPointData(6, tuple(points))
    nonzero = [(a, parts) for a, parts, total in naive_sums(data, range(6)) if total]
    assert nonzero == [(0, (3, 2))]
    assert localization_consistent(data) is False


def test_consistency_reaches_a_chern_monomial_closed_only_from_a_leaf(monkeypatch):
    # n = 4, every moment value 0, so e_1 is affine in the height only when
    # it is constant, and it is not: no partition is skipped. The shares
    # L / Lambda = (-5, 15, -15, 5, 3, -3) are 5 * (-1, 3, -3, 1), a third
    # difference, on the four points where e_1 = (0, 1, 2, 3), and a
    # cancelling pair on the two where e_1 = 0. With e_2 = e_3 = 0 every sum
    # below the top degree but that of c_1^3 vanishes, and (1, 1, 1) is
    # closed from the leaf of the node (1,), never as a node of its own.
    products, sums = (-3, 1, -1, 3, 5, -5), (0, 1, 2, 3, 0, 0)
    table, points = {}, []
    for lam, e1 in zip(products, sums):
        weights = (lam, 1, 1, 1)
        table[weights] = [1, e1, 0, 0, lam]
        points.append(FixedPoint(0, weights))
    monkeypatch.setattr(hamfp.localize, "elementary_symmetric", lambda w: table[w])
    data = FixedPointData(4, tuple(points))
    nonzero = [(a, parts) for a, parts, total in naive_sums(data, range(4)) if total]
    assert nonzero == [(0, (1, 1, 1))]
    assert assert_engine_matches_naive_sums(data) is False
