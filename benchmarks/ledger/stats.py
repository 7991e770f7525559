"""Estimators shared by the runner, the workloads and the self-tests.

A latency tail is the *highest percentile with at least ten samples beyond
it* (``tail_fraction``), never a fixed p99 over too few samples.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10

#: Tail percentiles tried, highest first.
TAIL_CANDIDATES = (0.99, 0.98, 0.95, 0.90, 0.75)


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(len(ordered) * fraction))
    return ordered[min(rank, len(ordered)) - 1]


def tail_fraction(count: int) -> float:
    """Highest candidate percentile with >= TAIL_MIN_BEYOND samples beyond it.

    Falls back to the median when even the lowest candidate is not
    supported, so tiny smoke runs still report *something* (flagged by
    the caller through the returned fraction).
    """
    for fraction in TAIL_CANDIDATES:
        if count - math.ceil(count * fraction) >= TAIL_MIN_BEYOND:
            return fraction
    return 0.5


def latency_summary(samples: Sequence[float]) -> tuple[float, float, float]:
    """(median, tail value, tail fraction) of one latency sample."""
    ordered = sorted(samples)
    fraction = tail_fraction(len(ordered))
    return percentile(ordered, 0.5), percentile(ordered, fraction), fraction
