"""Summary statistics shared by the runner, the comparer and the tests."""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Percentiles a latency tail may be reported at.  The steps are wide on
#: purpose: one more or one fewer pass fitting the time budget must not
#: move a workload's tail to another percentile.
TAIL_LADDER = (50, 90, 95, 99)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def median_iqr(values) -> tuple[float, float]:
    """Median and inter-quartile distance (``statistics.quantiles``)."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]), 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def tail_percentile(n: int) -> int:
    """The highest ladder percentile with >= MIN_BEYOND samples beyond it
    among ``n`` samples; the median when even p90 has too few."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n * (100 - pct) >= MIN_BEYOND * 100:
            best = pct
    return best


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil
    return ordered[int(rank) - 1]


def calibrate() -> float:
    """Seconds for a fixed pure-Python + numpy kernel.

    Timed before and after each workload to flag a noisy neighbour; it
    is reported, never used to rescale a measurement.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    arr = np.arange(1_000_000, dtype=np.int64)
    for _ in range(20):
        arr = np.cumsum(arr & 0xFFFF)
    if acc < 0 or arr[-1] < 0:  # consume both results
        raise AssertionError("calibration kernel produced nonsense")
    return time.perf_counter() - t0
