"""Figure 8: throughput vs average path length (the p trade-off).

Sweeping the per-link rate ``p`` moves both metrics at once: a smaller
``p`` raises every capacity (shallower trees, lower per-link rate), a
larger ``p`` does the opposite.  The figure plots the resulting
(throughput, average path length) locus for CAM-Chord and CAM-Koorde.

Expected shape (paper): both curves rise (higher throughput costs
longer paths), CAM-Koorde slightly wins at low throughput / large
capacities, CAM-Chord wins at high throughput / small capacities, with
a crossover in the middle (the paper's crossed near 46 kbps).
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import (
    ExperimentScale,
    FigureResult,
    Series,
    averaged_over_sources,
    bandwidth_group,
)
from repro.metrics.throughput import sustainable_throughput
from repro.multicast.session import SystemKind

PER_LINK_SWEEP = (10.0, 20.0, 30.0, 45.0, 60.0, 80.0, 100.0, 120.0, 140.0)

SYSTEMS = (SystemKind.CAM_CHORD, SystemKind.CAM_KOORDE)


def sweep(scale: ExperimentScale) -> list[tuple[SystemKind, float]]:
    """One point per (CAM system, per-link rate p)."""
    return [(kind, per_link) for kind in SYSTEMS for per_link in PER_LINK_SWEEP]


def run_point(
    scale: ExperimentScale, seed: int, point: tuple[SystemKind, float]
) -> tuple[str, float, float]:
    """Measure one trade-off point: (label, throughput, path length)."""
    kind, per_link = point
    group = bandwidth_group(kind, scale, per_link_kbps=per_link, seed=seed)
    throughput = averaged_over_sources(
        group, scale, lambda r, s: sustainable_throughput(r, s)
    )
    path = averaged_over_sources(group, scale, lambda r, s: r.average_path_length())
    return (kind.value, throughput, path)


def assemble(
    scale: ExperimentScale,
    seed: int,
    partials: Sequence[tuple[str, float, float]],
) -> FigureResult:
    """Collect the trade-off loci, sorted by throughput per system."""
    result = FigureResult(
        figure="fig8",
        title="Throughput (kbps) vs average multicast path length",
    )
    per_label = {kind.value: Series(label=kind.value) for kind in SYSTEMS}
    for label, throughput, path in partials:
        per_label[label].add(throughput, path)
    for series in per_label.values():
        series.points.sort()
        result.series.append(series)
    result.notes.append(
        "Both curves rise: throughput is bought with latency.  CAM-Koorde "
        "should win (lower path length) on the low-throughput side, "
        "CAM-Chord on the high-throughput side."
    )
    return result
