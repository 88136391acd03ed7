"""Figure 7: throughput improvement ratio vs upload-bandwidth range.

Setup: the bandwidth lower bound is pinned at a = 400 kbps and the
upper bound b sweeps 800..1600 kbps.  For each range the CAM system
(p = 100 kbps) is compared against its baseline run at the *matched*
uniform fanout — the rounded mean CAM capacity — so both trees have
comparable average children and only capacity-awareness differs.

Expected shape (paper): the ratio grows with the range width and is
"roughly proportional to (a + b) / 2a" — the degree of bandwidth
heterogeneity.
"""

from __future__ import annotations

from typing import Sequence

from repro.capacity.distributions import UniformBandwidth
from repro.experiments.common import (
    ExperimentScale,
    FigureResult,
    Series,
    averaged_over_sources,
    bandwidth_group,
    run_sweep,
)
from repro.metrics.throughput import sustainable_throughput
from repro.systems import capacity_aware_systems, descriptor_for

UPPER_BOUNDS = (800.0, 1000.0, 1200.0, 1400.0, 1600.0)
LOWER_BOUND = 400.0
PER_LINK = 100.0

#: (CAM system, its baseline, series label) — each capacity-aware system
#: is compared against the baseline its descriptor names.
PAIRS = tuple(
    (
        system.kind,
        system.baseline,
        f"{system.name} over {descriptor_for(system.baseline).name}",
    )
    for system in capacity_aware_systems()
    if system.baseline is not None
)


def sweep(scale: ExperimentScale) -> list[tuple[float, int]]:
    """One point per (bandwidth upper bound, CAM/baseline pair)."""
    return [
        (upper, pair_index)
        for upper in UPPER_BOUNDS
        for pair_index in range(len(PAIRS))
    ]


def run_point(
    scale: ExperimentScale, seed: int, point: tuple[float, int]
) -> tuple[str, float, float]:
    """Measure one ratio point: (series label, upper bound, ratio)."""
    upper, pair_index = point
    cam_kind, base_kind, label = PAIRS[pair_index]
    bandwidth = UniformBandwidth(LOWER_BOUND, upper)
    matched_fanout = max(2, round(bandwidth.mean() / PER_LINK))
    cam_group = bandwidth_group(
        cam_kind, scale, per_link_kbps=PER_LINK, bandwidth=bandwidth, seed=seed
    )
    base_group = bandwidth_group(
        base_kind,
        scale,
        per_link_kbps=PER_LINK,
        bandwidth=bandwidth,
        uniform_fanout=matched_fanout,
        seed=seed,
    )
    cam_throughput = averaged_over_sources(
        cam_group, scale, lambda r, s: sustainable_throughput(r, s)
    )
    base_throughput = averaged_over_sources(
        base_group, scale, lambda r, s: sustainable_throughput(r, s)
    )
    return (label, upper, cam_throughput / base_throughput)


def assemble(
    scale: ExperimentScale,
    seed: int,
    partials: Sequence[tuple[str, float, float]],
) -> FigureResult:
    """Collect the ratio points plus the analytic reference curve."""
    result = FigureResult(
        figure="fig7",
        title="Throughput improvement ratio vs upload bandwidth upper bound",
    )
    ratio_series = {label: Series(label=label) for _, _, label in PAIRS}
    for label, upper, ratio in partials:
        ratio_series[label].add(upper, ratio)
    heterogeneity = Series(label="(a+b)/2a reference")
    for upper in UPPER_BOUNDS:
        heterogeneity.add(upper, UniformBandwidth(LOWER_BOUND, upper).heterogeneity())
    result.series.extend(ratio_series.values())
    result.series.append(heterogeneity)
    result.notes.append(
        "Ratios should increase with the upper bound, tracking (a+b)/2a."
    )
    return result


def run(scale: ExperimentScale, seed: int = 0) -> FigureResult:
    """Regenerate the Figure 7 series."""
    return run_sweep(sweep, run_point, assemble, scale, seed)
