"""Order statistics the reports are built from (no ``repro`` imports,
so ``compare`` works on two report files alone)."""

from __future__ import annotations

import math
from statistics import median  # raises StatisticsError (a ValueError) on no samples
from typing import Sequence

#: Percentiles a latency report may quote, lowest first.
PERCENTILE_LADDER = (0.50, 0.90, 0.95, 0.99, 0.999)

#: A percentile is only quoted when at least this many samples lie
#: beyond it (choosing-metrics guide, section 1).
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a
    share ``q`` of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile share must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[max(rank, 1) - 1]


def highest_supported_percentile(count: int) -> float | None:
    """The highest ladder percentile with >= ``MIN_BEYOND`` samples
    beyond it, or ``None`` when even the median has fewer."""
    supported = None
    for q in PERCENTILE_LADDER:
        if count - math.ceil(q * count - 1e-9) >= MIN_BEYOND:
            supported = q
    return supported


def rel_spread(values: Sequence[float]) -> float:
    """``(max - min) / median`` — the per-workload rep spread."""
    middle = median(values)
    if middle == 0:
        return 0.0
    return (max(values) - min(values)) / abs(middle)


def summarize(values: Sequence[float]) -> dict[str, float | int]:
    """A host-time metric as the report carries it: the median is the
    value, min/max/n say how far to trust it."""
    return {
        "value": median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }
