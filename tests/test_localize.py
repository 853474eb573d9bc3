from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamfp import (
    BasisRestrictions,
    EquivClass,
    FixedPoint,
    FixedPointData,
    NotAManifoldError,
    chern_number,
    chern_restriction,
    integrate,
    make_standard_g2,
    pairing_matrix,
    point_invariants,
    build_basis,
    symplectic_class,
)
import hamfp.localize
from hamfp.exactnum import elementary_symmetric
from hamfp.localize import chern_table, expansion_memo, partition_count
from conftest import standard_data, swapped_weights, up_to_negation
from oracle import partitions, power

SETTINGS = settings(derandomize=True, max_examples=30, deadline=None)


def shift_phis(data, delta):
    return FixedPointData(
        data.n,
        tuple(FixedPoint(p.phi + delta, p.weights) for p in data.points),
    )


def test_symplectic_class_examples(std2):
    u = symplectic_class(std2)
    assert u.degree_half == 1
    assert u.coeffs == (0, -1, -3, -4)
    assert u.coeffs[0] == 0


def test_symplectic_class_ignores_global_shift(std4):
    assert symplectic_class(shift_phis(std4, 17)) == symplectic_class(std4)


def test_chern_restriction_examples(std2):
    c1 = chern_restriction(std2, 1)
    assert c1.degree_half == 1
    assert c1.coeffs == (4, 2, -2, -4)
    c2 = chern_restriction(std2, 2)
    assert c2.coeffs[1] == -3
    with pytest.raises(ValueError):
        chern_restriction(std2, 0)
    with pytest.raises(ValueError):
        chern_restriction(std2, 3)


@SETTINGS
@given(st.one_of(standard_data(), swapped_weights(ns=(2, 4, 6))))
def test_chern_restriction_is_a_column_of_the_chern_table(data):
    table = chern_table(data)
    for i in range(1, data.n + 1):
        column = tuple(Fraction(e[i]) for e in table)
        assert chern_restriction(data, i).coeffs == column
    for i in (0, data.n + 1):
        with pytest.raises(ValueError, match=f"Chern index {i} out of range"):
            chern_restriction(data, i)


def no_antipodes():
    # no point's weights are another point's negated, in any order
    return FixedPointData(
        2,
        (
            FixedPoint(0, (1, 2)),
            FixedPoint(1, (-1, 3)),
            FixedPoint(2, (-2, 1)),
            FixedPoint(3, (-3, -1)),
        ),
    )


@SETTINGS
@given(
    st.one_of(standard_data(), swapped_weights(ns=(2, 4, 6)), st.just(no_antipodes()))
)
def test_expansion_memo_rows_are_the_plain_rows(data):
    # swapped weights break antipodal pairs and no_antipodes has none; each
    # table is read twice, the second time from the memo alone
    expand = expansion_memo()
    plain = [elementary_symmetric(p.weights) for p in data.points]
    assert chern_table(data, expand) == plain
    assert chern_table(data, expand) == plain


weight_lists = st.lists(st.integers(-9, 9).filter(bool), min_size=1, max_size=6)


@SETTINGS
@given(
    st.lists(weight_lists, min_size=1, max_size=6), st.randoms(use_true_random=False)
)
def test_expansion_memo_expands_each_multiset_up_to_negation_once(weights, rng):
    # each list is met again negated and again as is, both in shuffled order
    queries = list(weights)
    for w in weights:
        queries.append(rng.sample([-v for v in w], len(w)))
        queries.append(rng.sample(w, len(w)))
    calls = []

    def counted(values):
        calls.append(tuple(values))
        return elementary_symmetric(values)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hamfp.localize, "elementary_symmetric", counted)
        expand = expansion_memo()
        rows = [expand(w) for w in queries]
    assert rows == [elementary_symmetric(w) for w in queries]
    assert len(calls) == len({up_to_negation(w) for w in weights})


@SETTINGS
@given(standard_data())
def test_top_chern_is_weight_product(data):
    n = data.n
    top = chern_restriction(data, n)
    expected = tuple(
        Fraction(point_invariants(data, i).lambda_full) for i in range(n + 2)
    )
    assert top.coeffs == expected


def test_integrate_unit_vanishes(std2, std4):
    assert integrate(std2, EquivClass(0, (1,) * (std2.n + 2))) == 0
    assert integrate(std4, EquivClass(0, (1,) * (std4.n + 2))) == 0


def test_integrate_refuses_a_class_of_another_length(std2):
    with pytest.raises(ValueError, match="does not match the fixed-point set"):
        integrate(std2, EquivClass(2, (1, 2, 3)))


def test_integrate_symplectic_square(std2):
    u = symplectic_class(std2)
    assert integrate(std2, power(u, 2)) == 2


def test_integrate_above_top_degree(std2):
    u = symplectic_class(std2)
    assert integrate(std2, power(u, 3)) == -12


def test_integrate_rejects_non_manifold_data(std2):
    points = list(std2.points)
    points[0] = FixedPoint(points[0].phi, (1, 4))
    bad = FixedPointData(2, tuple(points))
    with pytest.raises(NotAManifoldError):
        integrate(bad, EquivClass(0, (1,) * (bad.n + 2)))


@SETTINGS
@given(standard_data(ns=(2, 4, 6, 8)))
def test_symplectic_powers_vanish_below_top_degree(data):
    u = symplectic_class(data)
    for a in range(data.n):
        assert integrate(data, power(u, a)) == 0


def test_chern_number_examples(std2):
    assert chern_number(std2, [1, 1]) == 8
    assert chern_number(std2, [2]) == 4
    with pytest.raises(ValueError):
        chern_number(std2, [1])
    with pytest.raises(ValueError):
        chern_number(std2, [3])


def test_chern_numbers_are_integers(std4):
    for partition in ([1, 1, 1, 1], [2, 1, 1], [2, 2], [3, 1], [4]):
        value = chern_number(std4, partition)
        assert value.denominator == 1


@pytest.mark.parametrize("exponents", [[4, 3, 2, 1], [2, 1]], ids=["n6", "n2"])
def test_pairing_matrix_refuses_a_basis_for_another_n(std4, exponents):
    # a basis carries its dataset, so the mismatch is refused when it is built
    other = build_basis(make_standard_g2(exponents))
    with pytest.raises(ValueError, match=r"numerators are not n \+ 2 = 6 rows"):
        pairing_matrix(BasisRestrictions(std4, other.numerators, other.denominator))


def test_pairing_matrix_refuses_a_basis_for_another_dataset_of_the_same_n(std4):
    # it once reported "pairing (0,5) is 63/5" as if std4 were not integral
    other = build_basis(make_standard_g2([5, 2, 1]))
    with pytest.raises(ValueError, match=r"basis entry \(1,1\) does not match"):
        pairing_matrix(BasisRestrictions(std4, other.numerators, other.denominator))


def test_partition_count_by_recurrence():
    assert [partition_count(k) for k in range(16)] == [
        len(list(partitions(k))) for k in range(16)
    ]
    # far past anything that could be enumerated
    assert partition_count(100) == 190_569_292


def test_pairing_matrix_n2(std2):
    basis = build_basis(std2)
    matrix = pairing_matrix(basis)
    assert matrix[0][3] == 1
    assert [row[1:3] for row in matrix[1:3]] == [[2, 1], [1, 0]]
    det = matrix[1][1] * matrix[2][2] - matrix[1][2] * matrix[2][1]
    assert det == -1


@SETTINGS
@given(standard_data())
def test_middle_block_is_unimodular(data):
    matrix = pairing_matrix(build_basis(data))
    half = data.n // 2
    det = (
        matrix[half][half] * matrix[half + 1][half + 1]
        - matrix[half][half + 1] * matrix[half + 1][half]
    )
    assert det in (1, -1)

