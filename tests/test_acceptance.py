"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single pass/fail line (visible with ``pytest -s``) and
enforces its runtime budget.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

from hamfp import (
    FixedPoint,
    FixedPointData,
    MomentProfile,
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
    partitions,
    point_invariants,
    predicted_products,
    ring_integral,
    ring_make,
    ring_mul,
    standard_weights,
    symplectic_class,
    validate,
)
from conftest import sample_exponents


def report(number, name, ok, budget=None, elapsed=None):
    stamp = "" if budget is None else f" ({elapsed:.2f}s < {budget}s)"
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}{stamp}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_dim4_weight_table(tmp_path):
    start = time.monotonic()
    out = tmp_path / "std2.json"
    result = subprocess.run(
        [sys.executable, "-m", "hamfp", "generate", "--b", "2,1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
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
    rng = random.Random(101)
    ok = True
    for n in (2, 4, 6, 8):
        for _ in range(20):
            data = make_standard_g2(sample_exponents(rng, n))
            u = symplectic_class(data)
            for a in range(n):
                ok = ok and integrate(data, u.power(a)) == 0
            euler = integrate(data, chern_restriction(data, n))
            ok = ok and euler == n + 2
    elapsed = time.monotonic() - start
    report(2, "localization vanishing", ok and elapsed < 10.0, 10, elapsed)


def test_criterion_3_first_chern_identity():
    ok = True
    rng = random.Random(102)
    for n in (2, 4, 6):
        for _ in range(5):
            data = make_standard_g2(sample_exponents(rng, n))
            expansion = express_in_basis(
                build_basis(data), chern_restriction(data, 1)
            )
            ok = ok and expansion.terms[1] == (Fraction(n), 0)
    std2 = make_standard_g2([2, 1])
    gamma0 = point_invariants(std2, 0).gamma
    expansion = express_in_basis(build_basis(std2), chern_restriction(std2, 1))
    ok = ok and expansion.terms == (
        (Fraction(gamma0), 1),
        (Fraction(2), 0),
        (Fraction(0), 0),
        (Fraction(0), 0),
    )
    report(3, "first Chern identity", ok)


def test_criterion_4_weight_product_formulas():
    start = time.monotonic()
    rng = random.Random(103)
    ok = True
    for n in (2, 4, 6, 8, 10):
        for _ in range(20):
            data = make_standard_g2(sample_exponents(rng, n, hi=40))
            predicted = predicted_products(MomentProfile(n, data.phis))
            for i in range(n + 2):
                inv = point_invariants(data, i)
                ok = ok and predicted[i] == (inv.lambda_minus, inv.lambda_plus)
    elapsed = time.monotonic() - start
    report(4, "weight product formulas", ok and elapsed < 30.0, 30, elapsed)


def test_criterion_5_desk_scale_uniqueness():
    start = time.monotonic()
    ok = True
    for phis, bound in (((-2, -1, 1, 2), 4), ((-3, -2, -1, 1, 2, 3), 6)):
        n = len(phis) - 2
        profile = MomentProfile(n, phis)
        verdict = classify(profile, bound)
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
        table = ring_make(n)
        elements = [table.element(i) for i in range(n + 2)]
        for a, b, c in product(elements, repeat=3):
            lhs = ring_mul(table, ring_mul(table, a, b), c)
            rhs = ring_mul(table, a, ring_mul(table, b, c))
            ok = ok and lhs == rhs
        half = n // 2
        y, z = table.element(half), table.element(half + 1)
        top = table.element(half + 1 + half)
        if n % 4 == 2:
            ok = ok and ring_mul(table, y, y).is_zero
            ok = ok and ring_mul(table, z, z).is_zero
            ok = ok and ring_mul(table, y, z) == top
        else:
            ok = ok and ring_mul(table, y, y) == top
            ok = ok and ring_mul(table, z, z) == top
            ok = ok and ring_mul(table, y, z).is_zero
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
        matrix = pairing_matrix(data, basis)
        half = n // 2
        block = [
            [matrix[half][half], matrix[half][half + 1]],
            [matrix[half + 1][half], matrix[half + 1][half + 1]],
        ]
        det = block[0][0] * block[1][1] - block[0][1] * block[1][0]
        ok = ok and det in (1, -1)
        table = ring_make(n)
        images = basis_images(table)
        def ring_block_for(pair):
            return [
                [ring_integral(table, ring_mul(table, a, b)) for b in pair]
                for a in pair
            ]

        ok = ok and block == ring_block_for((images[half], images[half + 1]))
        # the y/z naming is a convention: swapping them leaves the block alone
        ok = ok and block == ring_block_for((images[half], table.element(half)))
    elapsed = time.monotonic() - start
    report(7, "integrality and unimodularity", ok and elapsed < 10.0, 10, elapsed)


def _tamper(rng, data):
    """Random tampering drawn from classes that provably break a check."""
    points = list(data.points)
    kind = rng.randrange(4)
    if kind == 0:
        # changing a single weight unbalances the negation closure
        i = rng.randrange(len(points))
        weights = list(points[i].weights)
        j = rng.randrange(len(weights))
        delta = rng.choice([-2, -1, 1, 2])
        if weights[j] + delta == 0:
            delta += 1 if delta > 0 else -1
        weights[j] += delta
        points[i] = FixedPoint(points[i].phi, tuple(weights))
    elif kind == 1:
        # negating one weight shifts one count up and its mirror down
        i = rng.randrange(len(points))
        weights = list(points[i].weights)
        j = rng.randrange(len(weights))
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
    rng = random.Random(104)
    ok = True

    # basis round trip on random integer expansions
    for n in (2, 4, 6):
        data = make_standard_g2(sample_exponents(rng, n))
        basis = build_basis(data)
        degrees = basis.half_degrees
        for _ in range(10):
            d = rng.randint(0, n + 1)
            wanted = [
                rng.randint(-9, 9) if degrees[i] <= d else 0 for i in range(n + 2)
            ]
            coeffs = [Fraction(0)] * (n + 2)
            for i, c in enumerate(wanted):
                for k in range(n + 2):
                    coeffs[k] += c * basis.rows[i].coeffs[k]
            from hamfp import EquivClass

            recovered = express_in_basis(basis, EquivClass(d, tuple(coeffs)))
            ok = ok and list(recovered.coefficients) == wanted

    # negation closure of standard weight multisets
    for n in (2, 4, 6, 8):
        data = make_standard_g2(sample_exponents(rng, n))
        counts = data.all_weights()
        ok = ok and all(counts[w] == counts[-w] for w in counts)

    # translation invariance of the symplectic class and the symmetry test
    for n in (2, 4):
        data = make_standard_g2(sample_exponents(rng, n))
        shift = rng.randint(-100, 100)
        shifted = FixedPointData(
            n, tuple(FixedPoint(p.phi + shift, p.weights) for p in data.points)
        )
        ok = ok and symplectic_class(shifted) == symplectic_class(data)
        ok = ok and check_symmetry(
            MomentProfile(n, shifted.phis)
        ) == check_symmetry(MomentProfile(n, data.phis))

    # validator soundness on randomized tamperings
    failures = 0
    for _ in range(50):
        n = rng.choice((2, 4, 6))
        data = make_standard_g2(sample_exponents(rng, n))
        tampered = _tamper(rng, data)
        if not validate(tampered).passed:
            failures += 1
    ok = ok and failures == 50

    report(8, "property suite", ok)
