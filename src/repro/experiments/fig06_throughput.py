"""Figure 6: multicast throughput vs average number of children.

Setup (Section 6.1): n members, upload bandwidths uniform in
[400, 1000] kbps.  The CAM systems derive capacities as
``c_x = floor(B_x / p)`` and their average fanout is swept through
``p`` (mean capacity = E[B]/p); the capacity-oblivious baselines give
*every* node the same fanout ``k`` regardless of bandwidth and are
swept through ``k``.  The x-axis is the configured average fanout —
the knob the paper sweeps; the out-degree *measured per non-leaf tree
node* is smaller because the tree's bottom layer can never fill its
capacity ("as long as the node is not at the bottom levels of the
tree", Section 3.4).

Throughput is the Section 6.1 bottleneck: ``min_x B_x / children(x)``
over internal tree nodes, averaged over several random sources.

Expected shape (paper): both families decay like ``const / fanout``;
the CAM curves sit 70-80% above their baselines across the sweep
(the constant is E[B] vs the minimum bandwidth a), because a CAM
allocation never drops below ``p`` while a uniform fanout lets a
400-kbps node serve as many children as a 1000-kbps one.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import (
    ExperimentScale,
    FigureResult,
    Series,
    averaged_over_sources,
    bandwidth_group,
    run_sweep,
)
from repro.metrics.throughput import sustainable_throughput
from repro.multicast.session import SystemKind
from repro.systems import all_descriptors, descriptor_for

#: per-link rates swept for the CAM systems (kbps); mean capacity = 700/p
CAM_PER_LINK_SWEEP = (10.0, 15.0, 25.0, 40.0, 70.0, 100.0, 140.0)

#: uniform fanouts swept for the baselines
BASELINE_FANOUT_SWEEP = (4, 8, 16, 32, 64)

#: per-link rate the uniform baselines derive (ignored) capacities with
BASELINE_PER_LINK = 100.0

MEAN_BANDWIDTH = 700.0

SERIES_ORDER = tuple(d.kind for d in all_descriptors())


def sweep(scale: ExperimentScale) -> list[tuple[SystemKind, float]]:
    """One point per (system, sweep knob): p for CAMs, k for baselines.

    Which knob a system sweeps follows its fanout policy — the
    capacity-aware systems sweep the per-link rate ``p``, the uniform
    baselines sweep the fanout ``k``.
    """
    points: list[tuple[SystemKind, float]] = []
    for system in all_descriptors():
        knobs = (
            CAM_PER_LINK_SWEEP
            if system.capacity_aware
            else BASELINE_FANOUT_SWEEP
        )
        points.extend((system.kind, float(knob)) for knob in knobs)
    return points


def run_point(
    scale: ExperimentScale, seed: int, point: tuple[SystemKind, float]
) -> tuple[str, float, float]:
    """Measure one sweep point: (series label, x, throughput)."""
    kind, knob = point
    policy = descriptor_for(kind).fanout
    per_link, uniform_fanout = policy.group_build_args(knob, BASELINE_PER_LINK)
    group = bandwidth_group(
        kind,
        scale,
        per_link_kbps=per_link,
        uniform_fanout=uniform_fanout,
        seed=seed,
    )
    x = policy.configured_average_fanout(knob, MEAN_BANDWIDTH)
    throughput = averaged_over_sources(
        group, scale, lambda r, s: sustainable_throughput(r, s)
    )
    return (kind.value, x, throughput)


def assemble(
    scale: ExperimentScale,
    seed: int,
    partials: Sequence[tuple[str, float, float]],
) -> FigureResult:
    """Collect the measured points into the Figure 6 series."""
    result = FigureResult(
        figure="fig6",
        title="Throughput (kbps) vs average number of children",
    )
    per_label = {kind.value: Series(label=kind.value) for kind in SERIES_ORDER}
    for label, x, throughput in partials:
        per_label[label].add(x, throughput)
    for series in per_label.values():
        series.points.sort()
        result.series.append(series)
    result.notes.append(
        "CAM capacity-aware curves should dominate the uniform-fanout "
        "baselines at comparable fanout (paper: +70-80%, the bandwidth-"
        "heterogeneity ratio E[B]/min(B) = 1.75)."
    )
    return result


def run(scale: ExperimentScale, seed: int = 0) -> FigureResult:
    """Regenerate the Figure 6 series (x = average fanout, y = kbps)."""
    return run_sweep(sweep, run_point, assemble, scale, seed)
