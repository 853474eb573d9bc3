import random
from fractions import Fraction

import pytest

from hamfp import (
    FixedPoint,
    FixedPointData,
    NotAManifoldError,
    chern_number,
    chern_restriction,
    euler_characteristic,
    integrate,
    make_standard_g2,
    pairing_matrix,
    point_invariants,
    build_basis,
    symplectic_class,
    unit_class,
)
from conftest import sample_exponents


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


def test_top_chern_is_weight_product():
    rng = random.Random(10)
    for n in (2, 4, 6):
        data = make_standard_g2(sample_exponents(rng, n))
        top = chern_restriction(data, n)
        expected = tuple(
            Fraction(point_invariants(data, i).lambda_full) for i in range(n + 2)
        )
        assert top.coeffs == expected


def test_integrate_unit_vanishes(std2, std4):
    assert integrate(std2, unit_class(std2)) == 0
    assert integrate(std4, unit_class(std4)) == 0


def test_integrate_symplectic_square(std2):
    u = symplectic_class(std2)
    assert integrate(std2, u.power(2)) == 2


def test_integrate_above_top_degree(std2):
    u = symplectic_class(std2)
    assert integrate(std2, u.power(3)) == -12


def test_integrate_rejects_non_manifold_data(std2):
    points = list(std2.points)
    points[0] = FixedPoint(points[0].phi, (1, 4))
    bad = FixedPointData(2, tuple(points))
    with pytest.raises(NotAManifoldError):
        integrate(bad, unit_class(bad))


def test_symplectic_powers_vanish_below_top_degree():
    rng = random.Random(11)
    for n in (2, 4, 6, 8):
        data = make_standard_g2(sample_exponents(rng, n))
        u = symplectic_class(data)
        for a in range(n):
            assert integrate(data, u.power(a)) == 0


def test_chern_number_examples(std2):
    assert chern_number(std2, [1, 1]) == 8
    assert chern_number(std2, [2]) == 4
    with pytest.raises(ValueError):
        chern_number(std2, [1])
    with pytest.raises(ValueError):
        chern_number(std2, [3])


def test_euler_characteristic_counts_fixed_points():
    rng = random.Random(12)
    for n in (2, 4, 6, 8):
        data = make_standard_g2(sample_exponents(rng, n))
        assert euler_characteristic(data) == n + 2


def test_chern_numbers_are_integers(std4):
    for partition in ([1, 1, 1, 1], [2, 1, 1], [2, 2], [3, 1], [4]):
        value = chern_number(std4, partition)
        assert value.denominator == 1


def test_pairing_matrix_n2(std2):
    basis = build_basis(std2)
    matrix = pairing_matrix(std2, basis)
    assert matrix[0][3] == 1
    assert [row[1:3] for row in matrix[1:3]] == [[2, 1], [1, 0]]
    det = matrix[1][1] * matrix[2][2] - matrix[1][2] * matrix[2][1]
    assert det == -1


def test_middle_block_is_unimodular():
    rng = random.Random(13)
    for n in (2, 4, 6):
        data = make_standard_g2(sample_exponents(rng, n))
        matrix = pairing_matrix(data, build_basis(data))
        half = n // 2
        det = (
            matrix[half][half] * matrix[half + 1][half + 1]
            - matrix[half][half + 1] * matrix[half + 1][half]
        )
        assert det in (1, -1)


def test_class_products_commute_and_associate(std4):
    rng = random.Random(14)
    classes = [
        chern_restriction(std4, rng.randint(1, 4)) for _ in range(3)
    ]
    a, b, c = classes
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
