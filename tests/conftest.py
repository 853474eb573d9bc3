import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume
from hypothesis import strategies as st

import hamfp
from hamfp import FixedPoint, FixedPointData, make_standard_g2

# The directory holding the imported package, so that a child process runs
# the same code as the tests, installed or not.
PACKAGE_ROOT = str(Path(hamfp.__file__).resolve().parents[1])


@pytest.fixture
def std2():
    return make_standard_g2([2, 1])


@pytest.fixture
def std4():
    return make_standard_g2([3, 2, 1])


@pytest.fixture
def sigma2():
    """A circle action on the Hirzebruch surface Sigma_2: genuine, with the
    ring of the oriented Grassmannian of 2-planes in R^4, and not standard."""
    return FixedPointData(
        2,
        (
            FixedPoint(0, (1, 3)),
            FixedPoint(3, (-1, 1)),
            FixedPoint(3, (-3, 1)),
            FixedPoint(4, (-1, -1)),
        ),
    )


def run_cli(*args: str, **extra_env: str) -> subprocess.CompletedProcess:
    """Run ``python -m hamfp`` with the given arguments in a child process,
    with extra_env added to its environment."""
    path = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": PACKAGE_ROOT + (os.pathsep + path if path else ""),
        **extra_env,
    }
    return subprocess.run(
        [sys.executable, "-m", "hamfp", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def exponent_lists(n: int, hi: int = 30) -> st.SearchStrategy[list[int]]:
    """Distinct positive exponents below hi for a standard dataset in
    dimension 2n."""
    size = n // 2 + 1
    return st.lists(st.integers(1, hi - 1), min_size=size, max_size=size, unique=True)


def quadric_chern_coefficients(n: int) -> list[int]:
    """a_0..a_n with c(TQ_n) = (1+x)^(n+2)/(1+2x) = sum a_k x^k: the total
    Chern class of the quadric Q_n, the oriented 2-plane Grassmannian."""
    return [
        sum(math.comb(n + 2, j) * (-2) ** (k - j) for j in range(k + 1))
        for k in range(n + 1)
    ]


def exact_type(value) -> bool:
    """The package's rule for exact values: an int when the value is
    integral, and otherwise a Fraction, whose denominator is then above 1."""
    return type(value) is int or (type(value) is Fraction and value.denominator > 1)


def up_to_negation(weights) -> tuple[int, ...]:
    """The multiset of the weights up to negation, as one sorted tuple."""
    return min(tuple(sorted(weights)), tuple(sorted(-w for w in weights)))


@st.composite
def standard_data(draw, ns=(2, 4, 6), hi=29):
    """Standard data for n drawn from ns and distinct exponents from 1..hi."""
    n = draw(st.sampled_from(ns))
    return make_standard_g2(draw(exponent_lists(n, hi + 1)))


@st.composite
def swapped_weights(draw, ns=(2, 4, 6, 8, 10)):
    """Standard data with a weight exchanged for one of the same sign at
    another point: the weight multiset, and so negation closure, is kept,
    while the per-point products and Chern classes change."""
    data = draw(standard_data(ns=ns, hi=12))
    n = data.n
    weights = [list(p.weights) for p in data.points]
    i, j = draw(st.permutations(range(n + 2)))[:2]
    a = draw(st.integers(0, n - 1))
    same_sign = [b for b in range(n) if (weights[j][b] < 0) == (weights[i][a] < 0)]
    assume(same_sign)
    b = draw(st.sampled_from(same_sign))
    weights[i][a], weights[j][b] = weights[j][b], weights[i][a]
    return FixedPointData(
        n,
        tuple(FixedPoint(p.phi, tuple(w)) for p, w in zip(data.points, weights)),
    )
