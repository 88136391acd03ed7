"""Extension C: lookup path lengths (Theorems 1, 2 and 5).

Measures average lookup hops for all four overlays across group sizes,
against the theoretical ``log n / log c`` scaling.  The paper proves
the bounds but does not plot them; this experiment closes the gap and
doubles as a regression harness for the routing implementations.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.capacity.distributions import UniformCapacity
from repro.experiments.common import (
    ExperimentScale,
    FigureResult,
    Series,
    capacity_group,
    point_rng,
)
from repro.multicast.session import SystemKind

LOOKUPS_PER_POINT = 200
SIZE_FRACTIONS = (0.1, 0.3, 1.0)

DISTRIBUTION = UniformCapacity(4, 10)


def _sub_scale(scale: ExperimentScale, fraction: float) -> tuple[ExperimentScale, int]:
    """The shrunken scale for one sweep fraction, at constant density."""
    size = max(64, int(scale.group_size * fraction))
    density = scale.group_size / (1 << scale.space_bits)
    # keep member density constant: de Bruijn hop counts track the
    # number of *bits to inject*, so log(N) must scale with log(n)
    bits = max(8, math.ceil(math.log2(size / density)))
    sub = ExperimentScale(
        name=f"{scale.name}*{fraction}",
        group_size=size,
        sources=scale.sources,
        protocol_size=scale.protocol_size,
        space_bits=bits,
    )
    return sub, size


def sweep(scale: ExperimentScale) -> list[tuple[float, SystemKind]]:
    """One point per (group-size fraction, overlay system)."""
    return [
        (fraction, kind) for fraction in SIZE_FRACTIONS for kind in SystemKind
    ]


def run_point(
    scale: ExperimentScale, seed: int, point: tuple[float, SystemKind]
) -> tuple[str, float, float]:
    """Average lookup hops of one system at one group size."""
    fraction, kind = point
    sub, size = _sub_scale(scale, fraction)
    rng = point_rng(seed, "extC", fraction, kind.value)
    group = capacity_group(kind, sub, DISTRIBUTION, uniform_fanout=8, seed=seed)
    hops = []
    for _ in range(LOOKUPS_PER_POINT):
        start = group.snapshot.random_node(rng)
        key = rng.randrange(group.overlay.space.size)
        hops.append(group.lookup(start, key).hops)
    return (kind.value, float(size), sum(hops) / len(hops))


def assemble(
    scale: ExperimentScale,
    seed: int,
    partials: Sequence[tuple[str, float, float]],
) -> FigureResult:
    """Collect the per-system scalings plus the analytic reference."""
    result = FigureResult(
        figure="extC",
        title="Average lookup hops vs group size (capacities [4..10])",
    )
    per_system = {kind.value: Series(label=kind.value) for kind in SystemKind}
    for label, size, mean_hops in partials:
        per_system[label].add(size, mean_hops)
    reference = Series(label="ln(n)/ln(7) reference")
    for fraction in SIZE_FRACTIONS:
        _, size = _sub_scale(scale, fraction)
        reference.add(size, math.log(size) / math.log(7))
    result.series.extend(per_system.values())
    result.series.append(reference)
    result.notes.append(
        "All systems should grow logarithmically with n; the CAM "
        "overlays should track the ln(n)/ln(mean capacity) reference."
    )
    return result
