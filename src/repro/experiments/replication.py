"""Multi-seed replication of experiments with summary statistics.

A single seed answers "what happened"; replication answers "how much of
that is noise".  :func:`aggregate` takes one experiment's per-seed
results (the runner computes them, fanned like any other task) and
aggregates matching series point-wise into mean and sample standard
deviation — usable by any experiment module since they all return
:class:`FigureResult`.

Series whose x-values differ across seeds (e.g. measured-children
sweeps) are aligned by *rank* rather than by x: the i-th point of each
run is treated as the same sweep position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.experiments.common import FigureResult, Series


@dataclass
class ReplicatedSeries:
    """One series aggregated across seeds."""

    label: str
    xs: list[float] = field(default_factory=list)
    means: list[float] = field(default_factory=list)
    deviations: list[float] = field(default_factory=list)

    def as_series(self) -> Series:
        """Mean values as a plain series (for the chart renderer)."""
        series = Series(label=f"{self.label} (mean of runs)")
        for x, mean in zip(self.xs, self.means):
            series.add(x, mean)
        return series

    def rows(self) -> list[str]:
        return [
            f"   {x:>12.4g}  {mean:>12.4g} ± {dev:<10.4g}"
            for x, mean, dev in zip(self.xs, self.means, self.deviations)
        ]


@dataclass
class ReplicatedResult:
    """A figure aggregated across seeds."""

    figure: str
    title: str
    runs: int
    series: list[ReplicatedSeries] = field(default_factory=list)

    def get_series(self, label: str) -> ReplicatedSeries:
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(f"no series labelled {label!r} in {self.figure}")

    def render(self) -> str:
        lines = [f"== {self.figure}: {self.title} [{self.runs} seeds, mean ± sd] =="]
        for series in self.series:
            lines.append(f"-- {series.label}")
            lines.extend(series.rows())
        return "\n".join(lines)


def _mean_and_deviation(values: Sequence[float]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(variance)


def aggregate(results: Sequence[FigureResult]) -> ReplicatedResult:
    """Point-wise mean ± sd over already-computed per-seed results."""
    if not results:
        raise ValueError("need at least one result")
    first = results[0]
    aggregated = ReplicatedResult(
        figure=first.figure, title=first.title, runs=len(results)
    )
    for series in first.series:
        label = series.label
        runs = [result.get_series(label) for result in results]
        points = min(len(run.points) for run in runs)
        replicated = ReplicatedSeries(label=label)
        for index in range(points):
            xs = [run.points[index][0] for run in runs]
            ys = [run.points[index][1] for run in runs]
            x_mean, _ = _mean_and_deviation(xs)
            y_mean, y_dev = _mean_and_deviation(ys)
            replicated.xs.append(x_mean)
            replicated.means.append(y_mean)
            replicated.deviations.append(y_dev)
        aggregated.series.append(replicated)
    return aggregated
