"""Timing helpers shared by the throughput benches.

Not a bench itself (the leading underscore keeps it out of the
``bench_*`` naming the scripts use); imported by the bench scripts,
which run with this directory on ``sys.path``.
"""

from __future__ import annotations

import statistics
import time


def window(fn, min_seconds: float) -> tuple[int, float]:
    """(repetitions, elapsed seconds) of ``fn`` over one timing window.

    ``fn`` runs at least once, so ``min_seconds=0`` times one call.
    """
    count = 0
    start = time.perf_counter()
    while True:
        fn()
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return count, elapsed


def interleaved_ratio(
    slow, fast, units: int, min_seconds: float, repeats: int
) -> dict:
    """Median ``fast``/``slow`` rate ratio over interleaved repeats.

    Each repeat times one window of each mode back to back, so both
    see the same host-speed drift, and the ratio is taken per repeat;
    the median of ``repeats`` ratios shrugs off the windows a noisy
    neighbour hit, where a best-of rate per mode would pair one mode's
    lucky window with the other's unlucky one.  The spread (min/max
    per-repeat ratio) is recorded next to the median, and the
    per-repeat rates are returned for ratios derived from several arms.
    """
    slow()  # warm-up outside the clock
    fast()
    ratios, slow_rates, fast_rates = [], [], []
    for _ in range(repeats):
        reps, elapsed = window(slow, min_seconds)
        slow_rate = reps * units / elapsed
        reps, elapsed = window(fast, min_seconds)
        fast_rate = reps * units / elapsed
        slow_rates.append(slow_rate)
        fast_rates.append(fast_rate)
        ratios.append(fast_rate / slow_rate)
    return {
        "slow_rate": statistics.median(slow_rates),
        "fast_rate": statistics.median(fast_rates),
        "ratio": statistics.median(ratios),
        "spread": spread(ratios),
        "slow_rates": slow_rates,
        "fast_rates": fast_rates,
    }


def spread(ratios) -> list[float]:
    """The [min, max] of per-repeat ratios, as recorded next to a median."""
    return [round(min(ratios), 2), round(max(ratios), 2)]
