"""Order statistics the benchmark reports: medians and sample-backed tails."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: percentiles a tail is read at, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: samples that must lie beyond a percentile before it is reported
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail(values: Sequence[float]) -> tuple[float, float]:
    """``(pct, value)`` at the highest ladder percentile with at least
    ``MIN_BEYOND`` samples beyond it; ``(0.0, 0.0)`` when no rung has."""
    n = len(values)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= MIN_BEYOND:
            return pct, percentile(values, pct)
    return 0.0, 0.0


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0
