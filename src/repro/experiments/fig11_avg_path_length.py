"""Figure 11: average path length vs average node capacity.

Sweeps the capacity ranges of Figures 9/10 (x = mean capacity) and
plots, alongside both systems, the artificial bound
``1.5 * ln(n) / ln(c)`` that the paper uses to verify Theorems 4 and 6.

Expected shape (paper): both curves fall with capacity and stay below
the bound; CAM-Chord is shorter for mean capacity below ~10,
CAM-Koorde shorter above ~12.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.capacity.distributions import (
    CapacityDistribution,
    FixedCapacity,
    UniformCapacity,
)
from repro.experiments.common import (
    ExperimentScale,
    FigureResult,
    Series,
    capacity_group,
    point_rng,
)
from repro.multicast.session import SystemKind

CAPACITY_RANGES: tuple[CapacityDistribution, ...] = (
    FixedCapacity(4),
    UniformCapacity(4, 8),
    UniformCapacity(4, 10),
    UniformCapacity(4, 20),
    UniformCapacity(4, 40),
    UniformCapacity(4, 60),
    UniformCapacity(4, 100),
    UniformCapacity(4, 200),
)


def theoretical_bound(mean_capacity: float, group_size: int) -> float:
    """The paper's reference curve ``1.5 ln(n) / ln(c)``."""
    return 1.5 * math.log(group_size) / math.log(mean_capacity)


SYSTEMS = (SystemKind.CAM_CHORD, SystemKind.CAM_KOORDE)


def sweep(scale: ExperimentScale) -> list[tuple[SystemKind, CapacityDistribution]]:
    """One point per (system, capacity range)."""
    return [(kind, d) for d in CAPACITY_RANGES for kind in SYSTEMS]


def run_point(
    scale: ExperimentScale,
    seed: int,
    point: tuple[SystemKind, CapacityDistribution],
) -> tuple[str, float, float]:
    """Mean multicast path length of one (system, range) pair."""
    kind, distribution = point
    rng = point_rng(seed, "fig11", kind.value, distribution)
    group = capacity_group(kind, scale, distribution, seed=seed)
    lengths = [
        group.multicast_from(group.random_member(rng)).average_path_length()
        for _ in range(scale.sources)
    ]
    return (kind.value, distribution.mean(), sum(lengths) / len(lengths))


def assemble(
    scale: ExperimentScale,
    seed: int,
    partials: Sequence[tuple[str, float, float]],
) -> FigureResult:
    """Collect the measured means plus the analytic bound curve."""
    result = FigureResult(
        figure="fig11",
        title="Average path length vs average node capacity",
    )
    per_system = {kind.value: Series(label=kind.value) for kind in SYSTEMS}
    for label, mean_capacity, mean_length in partials:
        per_system[label].add(mean_capacity, mean_length)
    bound = Series(label="1.5*ln(n)/ln(c)")
    for distribution in CAPACITY_RANGES:
        mean_capacity = distribution.mean()
        bound.add(mean_capacity, theoretical_bound(mean_capacity, scale.group_size))
    result.series.extend(per_system.values())
    result.series.append(bound)
    result.notes.append(
        "Both systems should sit below the 1.5*ln(n)/ln(c) bound; "
        "CAM-Chord wins at small capacities, CAM-Koorde at large ones "
        "(paper crossover between mean capacity 10 and 12)."
    )
    return result
