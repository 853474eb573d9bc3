import json
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings

from hamfp import (
    FixedPoint,
    FixedPointData,
    IntegralityError,
    RingElement,
    basis_images,
    betti,
    build_basis,
    make_standard_g2,
    ordinary_chern,
    pairing_matrix,
    ring_integral,
    ring_labels,
    ring_make,
    ring_mul,
    x_power,
)
from hamfp.grassring import image_pairing
from conftest import quadric_chern_coefficients, standard_data

RING_PRODUCTS = Path(__file__).resolve().parent / "golden" / "ring-products.json"
SETTINGS = settings(derandomize=True, max_examples=30, deadline=None)


def idx_y(n):
    return n // 2


def idx_z(n):
    return n // 2 + 1


def idx_g(n, k):
    return n // 2 + 1 + k


def ring_element(n, terms):
    """The element of the ring for n with coefficient c at label index i for
    each i: c in terms, and 0 elsewhere."""
    coeffs = [0] * (n + 2)
    for i, c in terms.items():
        coeffs[i] = c
    return RingElement(n, tuple(coeffs))


def scaled(k, elem):
    return RingElement(elem.n, tuple(k * c for c in elem.coeffs))


def test_labels():
    assert ring_labels(2) == ("1", "y", "z", "g_1")
    assert ring_labels(4) == ("1", "x", "y", "z", "g_1", "g_2")
    assert ring_labels(6) == ("1", "x", "x^2", "y", "z", "g_1", "g_2", "g_3")
    assert ring_labels(8) == (
        "1", "x", "x^2", "x^3", "y", "z", "g_1", "g_2", "g_3", "g_4"
    )
    # memoized: every element printed in the ring reuses one tuple
    assert ring_labels(6) is ring_labels(6)


@pytest.mark.parametrize("n", range(2, 17, 2))
def test_the_ring_is_its_basis(n):
    ring = ring_make(n)
    assert len(ring) == n + 2
    for i, (elem, label) in enumerate(zip(ring, ring_labels(n))):
        assert elem.coeffs == tuple(int(i == j) for j in range(n + 2))
        assert str(elem) == label


@pytest.mark.parametrize("n", range(2, 17, 2))
def test_basis_images_shear_only_the_middle_row(n):
    # row n/2 lands on x^(n/2) = y + z, every other row on its own label
    ring = ring_make(n)
    expected = list(ring)
    expected[n // 2] = x_power(n, n // 2)
    assert basis_images(ring) == tuple(expected)


@pytest.mark.parametrize("n", range(2, 21, 2))
def test_image_pairing_matches_the_ring_product(n):
    images = basis_images(ring_make(n))
    for i, j in product(range(n + 2), repeat=2):
        expected = ring_integral(ring_mul(images[i], images[j]))
        assert image_pairing(n, i, j) == expected, (i, j)
    for i, j in ((-1, 0), (0, n + 2)):
        with pytest.raises(ValueError):
            image_pairing(n, i, j)


def test_ring_make_rejects_bad_n():
    for bad in (3, 0, -2):
        for refuse in (ring_make, betti, ring_labels, lambda n: x_power(n, 1)):
            with pytest.raises(ValueError, match=f"got {bad}"):
                refuse(bad)


def test_parity_branch_n2():
    ring = ring_make(2)
    y, z = ring[idx_y(2)], ring[idx_z(2)]
    assert ring_mul(y, z) == ring[idx_g(2, 1)]
    assert ring_mul(y, y) == ring_element(2, {})
    assert ring_mul(z, z) == ring_element(2, {})


def test_parity_branch_n4():
    ring = ring_make(4)
    y, z = ring[idx_y(4)], ring[idx_z(4)]
    assert ring_mul(y, y) == ring[idx_g(4, 2)]
    assert ring_mul(z, z) == ring[idx_g(4, 2)]
    assert ring_mul(y, z) == ring_element(4, {})


def test_middle_power_splits():
    for n in (2, 4, 6, 8):
        half = n // 2
        expected = ring_element(n, {idx_y(n): 1, idx_z(n): 1})
        assert x_power(n, half) == expected
        if half >= 2:
            lhs = ring_mul(ring_make(n)[1], x_power(n, half - 1))
            assert lhs == expected


def test_x_power_edges():
    assert x_power(4, 5) == ring_element(4, {})
    with pytest.raises(ValueError, match="negative power"):
        x_power(4, -1)


def test_element_text():
    assert str(RingElement(4, (3, 1, -1, 0, 0, 0))) == "3 + x + -y"
    assert str(RingElement(4, (0, 0, 0, 0, 0, -2))) == "-2*g_2"
    assert str(ring_element(4, {})) == "0"


def test_elements_of_different_rings_are_refused():
    with pytest.raises(ValueError, match="rings for n=4 and n=6"):
        ring_mul(ring_make(4)[1], ring_make(6)[1])
    # read against the ring for n = 4, this element once gave 7
    assert ring_integral(RingElement(6, (0, 0, 0, 0, 0, 7, 0, 1))) == 1


def test_unit_element():
    ring = ring_make(4)
    for e in ring:
        assert ring_mul(ring[0], e) == e


def test_squares_of_middle_sum():
    s2 = x_power(2, 1)
    assert ring_mul(s2, s2) == ring_element(2, {idx_g(2, 1): 2})
    s4 = x_power(4, 2)
    assert ring_mul(s4, s4) == ring_element(4, {idx_g(4, 2): 2})


def test_products_above_top_degree_vanish():
    ring = ring_make(4)
    g1 = ring[idx_g(4, 1)]
    assert ring_mul(g1, g1) == ring_element(4, {})
    assert ring_mul(ring[idx_y(4)], g1) == ring_element(4, {})


def test_every_label_product_matches_golden():
    # every nonzero product of two basis labels for n = 2..12, as
    # [i, j, [[index, coeff], ...]] rows; pairs not listed multiply to 0
    golden = json.loads(RING_PRODUCTS.read_text())
    assert sorted(map(int, golden)) == list(range(2, 13, 2))
    for n_text, rows in golden.items():
        n = int(n_text)
        ring = ring_make(n)
        listed = {(i, j): terms for i, j, terms in rows}
        for i, j in product(range(n + 2), repeat=2):
            coeffs = ring_mul(ring[i], ring[j]).coeffs
            got = [[index, c] for index, c in enumerate(coeffs) if c]
            assert got == listed.get((i, j), []), (n, i, j)


def test_associativity_all_triples():
    for n in (2, 4, 6, 8):
        for a, b, c in product(ring_make(n), repeat=3):
            lhs = ring_mul(ring_mul(a, b), c)
            rhs = ring_mul(a, ring_mul(b, c))
            assert lhs == rhs


def test_commutativity_all_pairs():
    for n in (2, 4, 6):
        for a, b in product(ring_make(n), repeat=2):
            assert ring_mul(a, b) == ring_mul(b, a)


def test_betti_numbers():
    assert betti(2) == [1, 2, 1]
    assert betti(4) == [1, 1, 2, 1, 1]
    for n in (2, 4, 6, 8):
        assert sum(betti(n)) == n + 2
    with pytest.raises(ValueError):
        betti(5)


@pytest.mark.parametrize("bad", [4.0, "4"], ids=["float", "str"])
def test_ring_refuses_a_non_integer_n(bad):
    ring_labels(4)  # a cached 4 must not answer for 4.0
    for refuse in (ring_make, betti, ring_labels, lambda n: x_power(n, 1)):
        with pytest.raises(TypeError):
            refuse(bad)


@SETTINGS
@given(standard_data())
def test_betti_matches_basis_degree_pattern(data):
    n = data.n
    counts = Counter(build_basis(data).half_degrees)
    assert [counts[k] for k in range(n + 1)] == betti(n)


def test_ordinary_chern_n2(std2):
    classes = ordinary_chern(build_basis(std2))
    assert classes[0] == ring_element(2, {idx_y(2): 2, idx_z(2): 2})
    assert classes[1] == ring_element(2, {idx_g(2, 1): 4})
    assert str(classes[0]) == "2*y + 2*z"


def test_ordinary_chern_n4(std4):
    classes = ordinary_chern(build_basis(std4))
    assert classes[0] == ring_element(4, {1: 4})


@SETTINGS
@given(standard_data())
def test_first_chern_is_n_times_generator(data):
    n = data.n
    classes = ordinary_chern(build_basis(data))
    assert classes[0] == scaled(n, x_power(n, 1))


@SETTINGS
@given(standard_data())
def test_top_chern_class_counts_fixed_points(data):
    n = data.n
    classes = ordinary_chern(build_basis(data))
    assert classes[-1] == ring_element(n, {idx_g(n, n // 2): n + 2})
    assert ring_integral(classes[-1]) == n + 2


@pytest.mark.parametrize("n", range(2, 17, 2))
def test_ordinary_chern_matches_the_quadric(n):
    # the standard data is the action on the quadric Q_n, whose total Chern
    # class is (1+x)^(n+2)/(1+2x)
    data = make_standard_g2(range(n // 2 + 1, 0, -1))
    a = quadric_chern_coefficients(n)
    expected = [scaled(a[k], x_power(n, k)) for k in range(1, n + 1)]
    assert ordinary_chern(build_basis(data)) == expected


def test_ordinary_chern_rejects_fractional_expansion():
    points = (
        FixedPoint(0, (1, 1)),
        FixedPoint(1, (-2, 3)),
        FixedPoint(2, (-1, 1)),
        FixedPoint(3, (-1, -1)),
    )
    data = FixedPointData(2, points)
    with pytest.raises(IntegralityError):
        ordinary_chern(build_basis(data))


@SETTINGS
@given(standard_data())
def test_pairing_matches_ring_on_ordinary_images(data):
    n = data.n
    basis = build_basis(data)
    matrix = pairing_matrix(basis)
    images = basis_images(ring_make(n))
    degrees = basis.half_degrees
    for i in range(n + 2):
        for j in range(n + 2):
            if degrees[i] + degrees[j] != n:
                continue
            ring_value = ring_integral(ring_mul(images[i], images[j]))
            assert matrix[i][j] == ring_value


def test_middle_block_invariant_under_y_z_relabeling():
    # the ring has an automorphism swapping y and z; the pairing of the
    # middle images (x^(n/2), z) is unchanged if z is replaced by y
    for n in (2, 4):
        ring = ring_make(n)
        mid = x_power(n, n // 2)
        for other in (ring[idx_y(n)], ring[idx_z(n)]):
            block = [
                [
                    ring_integral(ring_mul(a, b))
                    for b in (mid, other)
                ]
                for a in (mid, other)
            ]
            if n % 4 == 2:
                assert block == [[2, 1], [1, 0]]
            else:
                assert block == [[2, 1], [1, 1]]
