import random
from fractions import Fraction

import pytest

from hamfp import (
    DegenerateGammaError,
    EquivClass,
    ExpansionError,
    FixedPoint,
    FixedPointData,
    build_basis,
    chern_restriction,
    express_in_basis,
    integrate,
    make_standard_g2,
    morse_pattern,
    point_invariants,
    symplectic_class,
)
from conftest import sample_exponents


def test_basis_rows_n2(std2):
    basis = build_basis(std2)
    assert basis.rows[0].coeffs == (1, 1, 1, 1)
    assert basis.rows[1] == symplectic_class(std2)
    assert basis.rows[2].coeffs == (0, 0, -3, -3)
    assert basis.rows[3].coeffs == (0, 0, 0, 3)
    assert basis.half_degrees == (0, 1, 1, 2)


def test_basis_triangular_with_weight_product_diagonal():
    rng = random.Random(15)
    for n in (2, 4, 6):
        data = make_standard_g2(sample_exponents(rng, n))
        basis = build_basis(data)
        pattern = morse_pattern(n)
        for i, row in enumerate(basis.rows):
            assert row.degree_half == pattern[i]
            for k in range(i):
                assert row.coeffs[k] == 0
            assert row.coeffs[i] == point_invariants(data, i).lambda_minus
        # last row has a single entry; first row is the unit class
        assert basis.rows[0].coeffs == (1,) * (n + 2)
        assert all(c == 0 for c in basis.rows[n + 1].coeffs[:-1])


def test_basis_middle_row_entry_is_evaluated_not_assumed():
    # nothing forces the lower middle row to vanish at the upper middle point
    basis = build_basis(make_standard_g2([2, 1]))
    assert basis.rows[1].coeffs[2] != 0


def test_basis_degenerate_gamma():
    points = (
        FixedPoint(0, (1, 2)),
        FixedPoint(1, (-1, 4)),
        FixedPoint(2, (-1, 2)),
        FixedPoint(3, (-1, -2)),
    )
    with pytest.raises(DegenerateGammaError):
        build_basis(FixedPointData(2, points))


def test_express_first_chern_n2(std2):
    basis = build_basis(std2)
    expansion = express_in_basis(basis, chern_restriction(std2, 1))
    assert expansion.terms == (
        (Fraction(4), 1),
        (Fraction(2), 0),
        (Fraction(0), 0),
        (Fraction(0), 0),
    )
    assert expansion.integral


def test_express_symplectic_class_is_first_row(std2):
    basis = build_basis(std2)
    expansion = express_in_basis(basis, symplectic_class(std2))
    assert expansion.coefficients == (0, 1, 0, 0)


def test_express_zero_class(std2):
    basis = build_basis(std2)
    zero = EquivClass(1, (0, 0, 0, 0))
    assert express_in_basis(basis, zero).coefficients == (0, 0, 0, 0)


def test_express_rejects_tuple_outside_span(std2):
    basis = build_basis(std2)
    with pytest.raises(ExpansionError):
        express_in_basis(basis, EquivClass(1, (0, 0, 0, 1)))
    with pytest.raises(ValueError):
        express_in_basis(basis, EquivClass(4, (0, 0, 0, 1)))


def test_round_trip_random_integer_expansions():
    rng = random.Random(16)
    for n in (2, 4, 6):
        data = make_standard_g2(sample_exponents(rng, n))
        basis = build_basis(data)
        degrees = basis.half_degrees
        for _ in range(10):
            d = rng.randint(0, n + 1)
            wanted = [
                rng.randint(-9, 9) if degrees[i] <= d else 0
                for i in range(n + 2)
            ]
            coeffs = [Fraction(0)] * (n + 2)
            for i, c in enumerate(wanted):
                for k in range(n + 2):
                    coeffs[k] += c * basis.rows[i].coeffs[k]
            expansion = express_in_basis(basis, EquivClass(d, tuple(coeffs)))
            assert list(expansion.coefficients) == wanted
            for i, (_, power) in enumerate(expansion.terms):
                if degrees[i] <= d:
                    assert power == d - degrees[i]


def test_chern_expansions_are_integral():
    rng = random.Random(17)
    for n in (2, 4, 6):
        data = make_standard_g2(sample_exponents(rng, n))
        basis = build_basis(data)
        for i in range(1, n + 1):
            assert express_in_basis(basis, chern_restriction(data, i)).integral


def test_first_chern_coefficient_is_n():
    rng = random.Random(18)
    for n in (2, 4, 6):
        data = make_standard_g2(sample_exponents(rng, n))
        basis = build_basis(data)
        expansion = express_in_basis(basis, chern_restriction(data, 1))
        assert expansion.terms[1] == (Fraction(n), 0)


def test_rows_integrate_to_zero_against_symplectic_powers():
    rng = random.Random(19)
    for n in (2, 4):
        data = make_standard_g2(sample_exponents(rng, n))
        basis = build_basis(data)
        u = symplectic_class(data)
        for row in basis.rows:
            for a in range(n - row.degree_half):
                assert integrate(data, row * u.power(a)) == 0
