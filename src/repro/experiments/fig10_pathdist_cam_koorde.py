"""Figure 10: multicast path-length distribution in CAM-Koorde.

Same setup as Figure 9 but flooding over CAM-Koorde; the paper's
legend omits [4..60] for this figure, so the sweep does too.
"""

from __future__ import annotations

from typing import Sequence

from repro.capacity.distributions import (
    CapacityDistribution,
    FixedCapacity,
    UniformCapacity,
)
from repro.experiments import fig09_pathdist_cam_chord as fig09
from repro.experiments.common import ExperimentScale, FigureResult
from repro.multicast.session import SystemKind

CAPACITY_RANGES: tuple[CapacityDistribution, ...] = (
    FixedCapacity(4),
    UniformCapacity(4, 6),
    UniformCapacity(4, 8),
    UniformCapacity(4, 10),
    UniformCapacity(4, 20),
    UniformCapacity(4, 40),
    UniformCapacity(4, 100),
    UniformCapacity(4, 200),
)


def sweep(scale: ExperimentScale) -> list[fig09.PathDistPoint]:
    """One point per capacity range (Figure 10: CAM-Koorde flooding)."""
    return [("fig10", SystemKind.CAM_KOORDE, d) for d in CAPACITY_RANGES]


#: identical per-point measurement to Figure 9, over the Koorde links
run_point = fig09.run_point


def assemble(
    scale: ExperimentScale,
    seed: int,
    partials: Sequence[tuple[str, list[tuple[int, int]]]],
) -> FigureResult:
    """Collect the per-range histograms into the Figure 10 curves."""
    result = fig09.build_figure("fig10", SystemKind.CAM_KOORDE, partials)
    result.notes.append(
        "Compared with Figure 9, CAM-Koorde's peaks sit further right "
        "for small capacities (flooding wastes some fanout on already-"
        "served neighbors) and catch up as capacities grow."
    )
    return result
