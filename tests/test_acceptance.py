"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single pass/fail line (visible with ``pytest -s``) and
enforces its runtime budget. Sampled inputs are drawn with ``hypothesis``,
derandomized, and each property asserts on every example, so a failure names
its input.
"""

import json
import time
from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from hamfp import (
    EquivClass,
    FixedPoint,
    FixedPointData,
    MomentProfile,
    NotAManifoldError,
    RingElement,
    basis_images,
    betti,
    build_basis,
    check_symmetry,
    chern_number,
    chern_restriction,
    classify,
    express_in_basis,
    integrate,
    make_standard_g2,
    pairing_matrix,
    point_invariants,
    predicted_products,
    ring_integral,
    ring_make,
    ring_mul,
    standard_weights,
    symplectic_class,
    validate,
)
from conftest import exponent_lists, run_cli
from oracle import basis_rows, multiply, partitions, power


def run_examples(strategy, count, check):
    """Call check on count derandomized examples of strategy, now."""
    settings(derandomize=True, max_examples=count, deadline=None)(
        given(strategy)(check)
    )()


def standard(n, hi=30):
    """Standard data in dimension 2n with distinct exponents below hi."""
    return exponent_lists(n, hi).map(make_standard_g2)


def report(number, name, ok, budget=None, elapsed=None):
    stamp = "" if budget is None else f" ({elapsed:.2f}s < {budget}s)"
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}{stamp}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_dim4_weight_table(tmp_path):
    start = time.monotonic()
    out = tmp_path / "std2.json"
    result = run_cli("generate", "--b", "2,1", "--out", str(out))
    doc = json.loads(out.read_text())
    weights = [sorted(int(w) for w in p["weights"]) for p in doc["points"]]
    phis = [int(p["phi"]) for p in doc["points"]]
    ok = (
        result.returncode == 0
        and weights == [[1, 3], [-1, 3], [-3, 1], [-3, -1]]
        and phis[3] - phis[2] == phis[1] - phis[0] == 1
    )
    elapsed = time.monotonic() - start
    report(1, "dim-4 weight table", ok and elapsed < 1.0, 1, elapsed)


def test_criterion_2_localization_vanishing():
    start = time.monotonic()

    def check(data):
        # every u^a and u^a * c_k (k >= 1) below the top degree integrates to 0
        u = symplectic_class(data)
        for a in range(data.n):
            assert integrate(data, power(u, a)) == 0
            for k in range(1, data.n - a):
                monomial = multiply(power(u, a), chern_restriction(data, k))
                assert integrate(data, monomial) == 0

    for n in (2, 4, 6, 8):
        run_examples(standard(n), 20, check)
    # weights (1, 2, 4, 5) at P0 of the n = 4 data made (1, 1, 8, 5): every
    # weight product, so every power of u, is unchanged, but c_1 is not
    std4 = make_standard_g2([3, 2, 1])
    tampered = FixedPointData(4, (FixedPoint(-3, (1, 1, 8, 5)),) + std4.points[1:])
    try:
        check(tampered)
        caught = False
    except NotAManifoldError as exc:
        caught = "degree-2 class is 3/40" in str(exc)
    elapsed = time.monotonic() - start
    report(2, "localization vanishing", caught and elapsed < 10.0, 10, elapsed)


def test_criterion_3_first_chern_identity():
    def check(data):
        expansion = express_in_basis(build_basis(data), chern_restriction(data, 1))
        assert expansion.terms[1] == (Fraction(data.n), 0)

    for n in (2, 4, 6):
        run_examples(standard(n), 5, check)
    std2 = make_standard_g2([2, 1])
    gamma0 = point_invariants(std2, 0).gamma
    expansion = express_in_basis(build_basis(std2), chern_restriction(std2, 1))
    ok = expansion.terms == (
        (Fraction(gamma0), 1),
        (Fraction(2), 0),
        (Fraction(0), 0),
        (Fraction(0), 0),
    )
    report(3, "first Chern identity", ok)


def test_criterion_4_weight_product_formulas():
    start = time.monotonic()

    def check(data):
        predicted = predicted_products(MomentProfile(data.n, data.phis))
        for i in range(data.n + 2):
            inv = point_invariants(data, i)
            assert predicted[i] == (inv.lambda_minus, inv.lambda_plus)

    for n in (2, 4, 6, 8, 10):
        run_examples(standard(n, hi=40), 20, check)
    elapsed = time.monotonic() - start
    report(4, "weight product formulas", elapsed < 30.0, 30, elapsed)


def test_criterion_5_desk_scale_uniqueness():
    start = time.monotonic()
    ok = True
    for phis in ((-2, -1, 1, 2), (-3, -2, -1, 1, 2, 3)):
        n = len(phis) - 2
        profile = MomentProfile(n, phis)
        verdict = classify(profile)
        ok = ok and len(verdict.candidates) == 1 and verdict.is_unique_standard
        ok = ok and check_symmetry(profile)
        if verdict.candidates:
            expected = [
                tuple(sorted(standard_weights(phis, i))) for i in range(n + 2)
            ]
            actual = [
                tuple(sorted(p.weights)) for p in verdict.candidates[0].points
            ]
            ok = ok and actual == expected
    elapsed = time.monotonic() - start
    report(5, "desk-scale uniqueness", ok and elapsed < 300.0, 300, elapsed)


def test_criterion_6_ring_correctness():
    start = time.monotonic()
    ok = True
    for n in (2, 4, 6, 8):
        ring = ring_make(n)
        for a, b, c in product(ring, repeat=3):
            lhs = ring_mul(ring_mul(a, b), c)
            rhs = ring_mul(a, ring_mul(b, c))
            ok = ok and lhs == rhs
        half = n // 2
        y, z = ring[half], ring[half + 1]
        top = ring[half + 1 + half]
        zero = RingElement(n, (0,) * (n + 2))
        if n % 4 == 2:
            ok = ok and ring_mul(y, y) == zero
            ok = ok and ring_mul(z, z) == zero
            ok = ok and ring_mul(y, z) == top
        else:
            ok = ok and ring_mul(y, y) == top
            ok = ok and ring_mul(z, z) == top
            ok = ok and ring_mul(y, z) == zero
        pattern = [1] * (n + 1)
        pattern[half] = 2
        ok = ok and betti(n) == pattern
    elapsed = time.monotonic() - start
    report(6, "ring correctness", ok and elapsed < 10.0, 10, elapsed)


def test_criterion_7_integrality_and_unimodularity():
    start = time.monotonic()
    ok = True
    for n in (2, 4):
        data = make_standard_g2(list(range(n // 2 + 1, 0, -1)))
        basis = build_basis(data)
        for i in range(1, n + 1):
            ok = ok and express_in_basis(basis, chern_restriction(data, i)).integral
        for parts in partitions(n):
            ok = ok and chern_number(data, parts).denominator == 1
        matrix = pairing_matrix(basis)
        half = n // 2
        block = [
            [matrix[half][half], matrix[half][half + 1]],
            [matrix[half + 1][half], matrix[half + 1][half + 1]],
        ]
        det = block[0][0] * block[1][1] - block[0][1] * block[1][0]
        ok = ok and det in (1, -1)
        ring = ring_make(n)
        images = basis_images(ring)
        def ring_block_for(pair):
            return [
                [ring_integral(ring_mul(a, b)) for b in pair]
                for a in pair
            ]

        ok = ok and block == ring_block_for((images[half], images[half + 1]))
        # the y/z naming is a convention: swapping them leaves the block alone
        ok = ok and block == ring_block_for((images[half], ring[half]))
    elapsed = time.monotonic() - start
    report(7, "integrality and unimodularity", ok and elapsed < 10.0, 10, elapsed)


@st.composite
def tampered(draw, data):
    """Data with a tampering drawn from classes that provably break a check."""
    points = list(data.points)
    kind = draw(st.integers(0, 3))
    if kind == 0:
        # changing a single weight unbalances the negation closure
        i = draw(st.integers(0, len(points) - 1))
        weights = list(points[i].weights)
        j = draw(st.integers(0, len(weights) - 1))
        delta = draw(st.sampled_from([-2, -1, 1, 2]))
        if weights[j] + delta == 0:
            delta += 1 if delta > 0 else -1
        weights[j] += delta
        points[i] = FixedPoint(points[i].phi, tuple(weights))
    elif kind == 1:
        # negating one weight shifts one count up and its mirror down
        i = draw(st.integers(0, len(points) - 1))
        weights = list(points[i].weights)
        j = draw(st.integers(0, len(weights) - 1))
        weights[j] = -weights[j]
        points[i] = FixedPoint(points[i].phi, tuple(weights))
    elif kind == 2:
        # swapping the first two points breaks the moment order
        points[0], points[1] = points[1], points[0]
    else:
        # swapping the weight multisets of the extremes moves negative counts
        last = len(points) - 1
        points[0], points[last] = (
            FixedPoint(points[0].phi, points[last].weights),
            FixedPoint(points[last].phi, points[0].weights),
        )
    return FixedPointData(data.n, tuple(points))


def test_criterion_8_property_suite():
    # basis round trip on random integer expansions
    def round_trip(data, drawn):
        n = data.n
        basis = build_basis(data)
        degrees = basis.half_degrees
        d = drawn.draw(st.integers(0, n + 1))
        wanted = [
            drawn.draw(st.integers(-9, 9)) if degrees[i] <= d else 0
            for i in range(n + 2)
        ]
        rows = basis_rows(basis)
        coeffs = [Fraction(0)] * (n + 2)
        for i, c in enumerate(wanted):
            for k in range(n + 2):
                coeffs[k] += c * rows[i].coeffs[k]
        recovered = express_in_basis(basis, EquivClass(d, tuple(coeffs)))
        assert list(recovered.coefficients) == wanted

    for n in (2, 4, 6):
        run_examples(st.tuples(standard(n), st.data()), 10, lambda case: round_trip(*case))

    # negation closure of standard weight multisets
    def closed(data):
        counts = data.all_weights()
        assert all(counts[w] == counts[-w] for w in counts)

    for n in (2, 4, 6, 8):
        run_examples(standard(n), 5, closed)

    # translation invariance of the symplectic class and the symmetry test
    def translated(data, shift):
        shifted = FixedPointData(
            data.n, tuple(FixedPoint(p.phi + shift, p.weights) for p in data.points)
        )
        assert symplectic_class(shifted) == symplectic_class(data)
        assert check_symmetry(MomentProfile(data.n, shifted.phis)) == check_symmetry(
            MomentProfile(data.n, data.phis)
        )

    for n in (2, 4):
        run_examples(
            st.tuples(standard(n), st.integers(-100, 100)), 5, lambda case: translated(*case)
        )

    # validator soundness on randomized tamperings
    def refused(data):
        assert not validate(data).passed

    run_examples(
        st.sampled_from((2, 4, 6)).flatmap(standard).flatmap(tampered), 50, refused
    )

    # every check above asserts on each of its examples
    report(8, "property suite", True)
