"""The host's speed, from a fixed piece of exact arithmetic.

The benchmark was written on a shared host whose speed drifted by 20% to 40%
within minutes, for any code alike. The time of a calibration sample, which
does not use hamfp, tracks that speed. The timed metrics are reported at a
reference speed: a time t measured while a sample took c seconds reads
t * REF_S / c, the time it would take on a host where a sample takes REF_S.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

STEPS = 1300  # work of one sample
REF_S = 0.010  # a sample's time at the reference speed
WINDOW = 3  # op k is scaled by the median of samples k - WINDOW + 1 .. k + WINDOW


def calibrate() -> float:
    """Seconds for one calibration sample."""
    start = perf_counter()
    total = Fraction(0)
    sums: dict[int, int] = {}
    for i in range(1, STEPS):
        total += Fraction(i * i + 1, 3 * i + 2)
        sums[i % 97] = sums.get(i % 97, 0) + i**5
    return perf_counter() - start


def at_reference(times: list[float], samples: list[float]) -> list[float]:
    """Each time scaled to the reference speed.

    samples has one more entry than times: sample k was taken just before
    time k and sample k + 1 just after. Each time is scaled by the median of
    the samples near it, so that a single disturbed sample weighs little.
    """
    scaled = []
    for k, t in enumerate(times):
        near = samples[max(0, k - WINDOW + 1) : k + WINDOW + 1]
        scaled.append(t * REF_S / statistics.median(near))
    return scaled
