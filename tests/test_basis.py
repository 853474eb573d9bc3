"""The canonical basis, its expansions and its pairing.

Properties over standard data draw the exponents with ``hypothesis``. The
integer forms of ``build_basis``, ``express_in_basis`` and ``pairing_matrix``
are compared with plain ``Fraction`` references (the closed forms as running
products, forward substitution one ``Fraction`` operation at a time, and
``integrate`` on each product of rows) on standard data, on standard data
with one weight changed and on freely drawn weights, whose bases are often
fractional. The batched Chern expansions of ``express_chern`` are compared
with ``express_in_basis`` on each Chern class, on those data and on
standard data with two weights swapped between points."""

from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hamfp import (
    BasisRestrictions,
    DegenerateGammaError,
    EquivClass,
    ExpansionError,
    FixedPoint,
    FixedPointData,
    IntegralityError,
    build_basis,
    chern_restriction,
    express_in_basis,
    integrate,
    make_standard_g2,
    morse_pattern,
    ordinary_chern,
    pairing_matrix,
    point_invariants,
    symplectic_class,
)
from hamfp.basis import express_chern
from hamfp.dataio import data_from_document, load_document

from conftest import standard_data, swapped_weights
from oracle import basis_rows, multiply, power

GOLDEN = Path(__file__).resolve().parent / "golden"

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def weight_data(draw):
    """A dataset and its basis: standard data, standard data with one weight
    changed (same sign, new size), or weights drawn freely with the Morse
    pattern's count of negative ones at each point."""
    data = draw(standard_data())
    n = data.n
    points = list(data.points)
    kind = draw(st.sampled_from(("standard", "changed", "free")))
    if kind == "changed":
        p = draw(st.integers(0, n + 1))
        i = draw(st.integers(0, n - 1))
        weights = list(points[p].weights)
        weights[i] = draw(st.integers(1, 40)) * (1 if weights[i] > 0 else -1)
        points[p] = FixedPoint(points[p].phi, tuple(weights))
    elif kind == "free":
        sizes = st.integers(1, 12)
        points = [
            FixedPoint(
                point.phi,
                tuple(-w for w in draw(st.lists(sizes, min_size=neg, max_size=neg)))
                + tuple(draw(st.lists(sizes, min_size=n - neg, max_size=n - neg))),
            )
            for point, neg in zip(points, morse_pattern(n))
        ]
    data = FixedPointData(n, tuple(points))
    try:
        basis = build_basis(data)
    except DegenerateGammaError:
        assume(False)
    return data, basis


def reference_rows(data):
    """The closed-form entries, each a running product of Fractions."""
    n = data.n
    m = n + 2
    inv = [point_invariants(data, i) for i in range(m)]
    gammas = [v.gamma for v in inv]
    rows = []
    for i in range(m):
        coeffs = [Fraction(0)] * m
        coeffs[i] = Fraction(inv[i].lambda_minus)
        for k in range(i + 1, m):
            if i <= n // 2:
                value = Fraction(inv[i].lambda_minus)
                for j in range(i):
                    value *= Fraction(gammas[k] - gammas[j], gammas[i] - gammas[j])
            else:
                value = Fraction(-inv[k].lambda_full, inv[i].lambda_plus)
                for j in range(i + 1, m):
                    if j != k:
                        value *= Fraction(gammas[i] - gammas[j], gammas[k] - gammas[j])
            coeffs[k] = value
        rows.append(tuple(coeffs))
    return rows


def reference_expansion(basis, cls):
    """Forward substitution with one Fraction operation at a time."""
    d = cls.degree_half
    degrees = basis.half_degrees
    rows = basis_rows(basis)
    coeffs = []
    for k in range(basis.n + 2):
        residual = cls.coeffs[k]
        for i in range(k):
            residual -= coeffs[i] * rows[i].coeffs[k]
        if degrees[k] <= d:
            coeffs.append(residual / rows[k].coeffs[k])
        elif residual != 0:
            raise ExpansionError(
                f"degree-{2 * d} tuple is outside the basis span: residual "
                f"{residual} at point {k}"
            )
        else:
            coeffs.append(Fraction(0))
    return tuple(
        (c, d - degrees[k] if degrees[k] <= d else 0) for k, c in enumerate(coeffs)
    )


def reference_pairing(data, basis):
    """integrate on each product of complementary rows, in row-major order."""
    m = data.n + 2
    rows = basis_rows(basis)
    out = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if rows[i].degree_half + rows[j].degree_half != data.n:
                continue
            value = integrate(data, multiply(rows[i], rows[j]))
            if value.denominator != 1:
                raise IntegralityError(
                    f"pairing ({i},{j}) is {value}, expected an integer"
                )
            out[i][j] = int(value)
    return out


def outcome(fn, *args):
    """The result of fn, or the type and message of the error it raises."""
    try:
        return "returned", fn(*args)
    except (ExpansionError, IntegralityError) as exc:
        return type(exc).__name__, str(exc)


def test_basis_rows_n2(std2):
    basis = build_basis(std2)
    rows = basis_rows(basis)
    assert rows[0].coeffs == (1, 1, 1, 1)
    assert rows[1] == symplectic_class(std2)
    assert rows[2].coeffs == (0, 0, -3, -3)
    assert rows[3].coeffs == (0, 0, 0, 3)
    assert basis.half_degrees == (0, 1, 1, 2)


@SETTINGS
@given(standard_data())
def test_basis_triangular_with_weight_product_diagonal(data):
    n = data.n
    rows = basis_rows(build_basis(data))
    pattern = morse_pattern(n)
    for i, row in enumerate(rows):
        assert row.degree_half == pattern[i]
        for k in range(i):
            assert row.coeffs[k] == 0
        assert row.coeffs[i] == point_invariants(data, i).lambda_minus
    # last row has a single entry; first row is the unit class
    assert rows[0].coeffs == (1,) * (n + 2)
    assert all(c == 0 for c in rows[n + 1].coeffs[:-1])


def test_basis_middle_row_entry_is_evaluated_not_assumed():
    # nothing forces the lower middle row to vanish at the upper middle point
    rows = basis_rows(build_basis(make_standard_g2([2, 1])))
    assert rows[1].coeffs[2] != 0


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
    with pytest.raises(ValueError, match="does not match the basis point count"):
        express_in_basis(basis, EquivClass(1, (0, 0, 0)))


@SETTINGS
@given(standard_data(), st.data())
def test_round_trip_random_integer_expansions(data, draw):
    n = data.n
    basis = build_basis(data)
    degrees = basis.half_degrees
    d = draw.draw(st.integers(0, n + 1))
    wanted = [
        draw.draw(st.integers(-9, 9)) if degrees[i] <= d else 0
        for i in range(n + 2)
    ]
    rows = basis_rows(basis)
    coeffs = [Fraction(0)] * (n + 2)
    for i, c in enumerate(wanted):
        for k in range(n + 2):
            coeffs[k] += c * rows[i].coeffs[k]
    expansion = express_in_basis(basis, EquivClass(d, tuple(coeffs)))
    assert list(expansion.coefficients) == wanted
    for i, (_, power) in enumerate(expansion.terms):
        if degrees[i] <= d:
            assert power == d - degrees[i]


@SETTINGS
@given(standard_data())
def test_chern_expansions_are_integral(data):
    basis = build_basis(data)
    for i in range(1, data.n + 1):
        assert express_in_basis(basis, chern_restriction(data, i)).integral


@SETTINGS
@given(standard_data())
def test_first_chern_coefficient_is_n(data):
    basis = build_basis(data)
    expansion = express_in_basis(basis, chern_restriction(data, 1))
    assert expansion.terms[1] == (Fraction(data.n), 0)


@SETTINGS
@given(standard_data((2, 4)))
def test_rows_integrate_to_zero_against_symplectic_powers(data):
    basis = build_basis(data)
    u = symplectic_class(data)
    for row in basis_rows(basis):
        for a in range(data.n - row.degree_half):
            assert integrate(data, multiply(row, power(u, a))) == 0


def assert_entries_match_reference_rows(data, basis):
    expected = reference_rows(data)
    assert [row.coeffs for row in basis_rows(basis)] == expected
    assert basis.denominator == lcm(*(c.denominator for row in expected for c in row))
    assert [
        tuple(Fraction(a, basis.denominator) for a in row) for row in basis.numerators
    ] == expected


@SETTINGS
@given(weight_data())
def test_basis_entries_are_numerators_over_one_denominator(case):
    assert_entries_match_reference_rows(*case)


def changed_weight_data_10():
    # standard data at n = 10 with the weight -10 at P5 changed to -13: its
    # basis has denominator 7,130,690,000
    std = make_standard_g2([11, 7, 5, 3, 2, 1])
    points = list(std.points)
    weights = (-13,) + points[5].weights[1:]
    points[5] = FixedPoint(points[5].phi, weights)
    return FixedPointData(10, tuple(points))


@pytest.mark.parametrize(
    "data",
    [
        data_from_document(load_document(str(GOLDEN / "std16.json"))),
        changed_weight_data_10(),
    ],
    ids=["std16", "changed10"],
)
def test_basis_entries_are_numerators_over_one_denominator_past_n_6(data):
    # weight_data draws n from 2, 4 and 6 only; these rows are longer
    assert_entries_match_reference_rows(data, build_basis(data))


@SETTINGS
@given(weight_data(), st.data())
def test_express_in_basis_matches_fraction_substitution(case, draw):
    data, basis = case
    n = data.n
    d = draw.draw(st.integers(0, n + 1))
    fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
    wanted = [draw.draw(fractions) if deg <= d else 0 for deg in basis.half_degrees]
    rows = basis_rows(basis)
    coeffs = [
        sum(c * row.coeffs[k] for c, row in zip(wanted, rows)) for k in range(n + 2)
    ]
    if draw.draw(st.booleans()):  # usually moves the tuple off the span
        coeffs[draw.draw(st.integers(0, n + 1))] += draw.draw(fractions)
    chern = [chern_restriction(data, i) for i in range(1, n + 1)]
    for cls in [EquivClass(d, tuple(coeffs)), *chern]:
        got = outcome(express_in_basis, basis, cls)
        if got[0] == "returned":
            got = got[0], got[1].terms
        assert got == outcome(reference_expansion, basis, cls)


@SETTINGS
@given(weight_data())
def test_pairing_matrix_matches_integrate(case):
    data, basis = case
    assert outcome(pairing_matrix, basis) == outcome(
        reference_pairing, data, basis
    )


def expansions_one_by_one(basis, data):
    """The Chern expansions, one express_in_basis call per EquivClass, up
    to the first ExpansionError, and that error's message or None."""
    expansions = []
    try:
        for i in range(1, data.n + 1):
            cls = chern_restriction(data, i)
            expansions.append(express_in_basis(basis, cls).terms)
    except ExpansionError as exc:
        return expansions, str(exc)
    return expansions, None


def expansions_batched(basis, data):
    """The same from express_chern, read lazily as the CLI reads it."""
    expansions = []
    try:
        for expansion in express_chern(basis):
            expansions.append(expansion.terms)
    except ExpansionError as exc:
        return expansions, str(exc)
    return expansions, None


@SETTINGS
@given(st.one_of(standard_data(), swapped_weights(), weight_data().map(lambda c: c[0])))
def test_express_chern_matches_express_in_basis(data):
    try:
        basis = build_basis(data)
    except DegenerateGammaError:
        assume(False)
    batched = expansions_batched(basis, data)
    assert batched == expansions_one_by_one(basis, data)
    for terms in batched[0]:
        assert all(type(c) is Fraction for c, _ in terms)


def test_express_chern_fails_at_the_same_class_on_frac6():
    data = data_from_document(load_document(str(GOLDEN / "frac6.json")))
    basis = build_basis(data)
    expansions, message = expansions_batched(basis, data)
    assert message is not None and 0 < len(expansions) < data.n
    assert (expansions, message) == expansions_one_by_one(basis, data)


@pytest.mark.parametrize(
    "exponents, message",
    [
        ([5, 2, 1], r"basis entry \(1,1\) does not match the dataset"),
        ([4, 3, 2, 1], r"numerators are not n \+ 2 = 6 rows of 6 entries"),
    ],
    ids=["same-n", "other-n"],
)
def test_chern_expansions_refuse_a_basis_for_other_data(exponents, message):
    # the same-n basis once gave "ExpansionError: ... outside the basis span";
    # a basis now carries its dataset, so the mismatch is refused when it is
    # built, before express_chern or ordinary_chern can see it
    data = make_standard_g2([3, 2, 1])
    other = build_basis(make_standard_g2(exponents))
    for chern in (lambda basis: next(express_chern(basis)), ordinary_chern):
        with pytest.raises(ValueError, match=message):
            chern(BasisRestrictions(data, other.numerators, other.denominator))


@pytest.mark.parametrize("bad", [0.5, Fraction(1, 2)], ids=["float", "fraction"])
def test_basis_refuses_entries_that_are_not_integers(std4, bad):
    # a float entry was once accepted, and pairing_matrix then failed with
    # "TypeError: both arguments should be Rational instances"; a whole
    # denominator of another type is refused too, not truncated
    basis = build_basis(std4)
    rows = [list(row) for row in basis.numerators]
    rows[0][5] += bad
    with pytest.raises(TypeError):
        BasisRestrictions(std4, rows, basis.denominator)
    with pytest.raises(TypeError):
        BasisRestrictions(std4, basis.numerators, type(bad)(basis.denominator))
