import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

import hamfp
from hamfp import make_standard_g2

# The directory holding the imported package, so that a child process runs
# the same code as the tests, installed or not.
PACKAGE_ROOT = str(Path(hamfp.__file__).resolve().parents[1])


@pytest.fixture
def std2():
    return make_standard_g2([2, 1])


@pytest.fixture
def std4():
    return make_standard_g2([3, 2, 1])


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """Run ``python -m hamfp`` with the given arguments in a child process."""
    path = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": PACKAGE_ROOT + (os.pathsep + path if path else ""),
    }
    return subprocess.run(
        [sys.executable, "-m", "hamfp", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def sample_exponents(rng: random.Random, n: int, hi: int = 30) -> list[int]:
    """Distinct positive exponents for a standard dataset in dimension 2n."""
    return rng.sample(range(1, hi), n // 2 + 1)


def quadric_chern_coefficients(n: int) -> list[int]:
    """a_0..a_n with c(TQ_n) = (1+x)^(n+2)/(1+2x) = sum a_k x^k: the total
    Chern class of the quadric Q_n, the oriented 2-plane Grassmannian."""
    return [
        sum(math.comb(n + 2, j) * (-2) ** (k - j) for j in range(k + 1))
        for k in range(n + 1)
    ]


@st.composite
def standard_data(draw, ns=(2, 4, 6), hi=29):
    """Standard data for n drawn from ns and distinct exponents from 1..hi."""
    n = draw(st.sampled_from(ns))
    size = n // 2 + 1
    return make_standard_g2(
        draw(st.lists(st.integers(1, hi), min_size=size, max_size=size, unique=True))
    )
