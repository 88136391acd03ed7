"""Bandwidth-to-capacity conversion (Section 6 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import floordiv

#: CAM-Chord needs ``c_x >= 2``: with capacity 2 the neighbor identifiers
#: ``x + 1 * 2**i`` degenerate to exactly the classic Chord finger table,
#: which is the smallest table that still guarantees O(log n) lookups.
CAM_CHORD_MIN_CAPACITY = 2

#: CAM-Koorde requires ``c_x >= 4`` (Section 4.1): the mandatory basic
#: neighbor group is {predecessor, successor, x/2, 2^(b-1) + x/2}.
CAM_KOORDE_MIN_CAPACITY = 4


def capacity_from_bandwidth(
    bandwidth_kbps: float, per_link_kbps: float, minimum: int = 1
) -> int:
    """Compute ``c_x = floor(B_x / p)``, clamped to ``minimum``.

    ``per_link_kbps`` is the paper's system parameter ``p``: the desired
    bandwidth each multicast-tree link should sustain.  Lowering ``p``
    raises every node's capacity (shallower trees, lower per-link rate);
    raising ``p`` does the opposite.  This is the single tuning knob of
    the throughput/latency trade-off in Figure 8.
    """
    if per_link_kbps <= 0:
        raise ValueError(f"per-link bandwidth must be positive, got {per_link_kbps}")
    if bandwidth_kbps < 0:
        raise ValueError(f"bandwidth must be >= 0, got {bandwidth_kbps}")
    return max(minimum, int(bandwidth_kbps // per_link_kbps))


@dataclass(frozen=True)
class CapacityModel:
    """Derives capacities from upload bandwidths for one overlay family.

    ``minimum`` is the overlay-specific floor (``CAM_CHORD_MIN_CAPACITY``
    or ``CAM_KOORDE_MIN_CAPACITY``).  The floor matters for correctness,
    not just performance: a CAM-Koorde node below the floor cannot even
    populate its mandatory basic neighbor group.
    """

    per_link_kbps: float
    minimum: int = 1

    def __post_init__(self) -> None:
        if self.per_link_kbps <= 0:
            raise ValueError(
                f"per-link bandwidth must be positive, got {self.per_link_kbps}"
            )
        if self.minimum < 1:
            raise ValueError(f"minimum capacity must be >= 1, got {self.minimum}")

    def capacity(self, bandwidth_kbps: float) -> int:
        """Capacity of a node with the given upload bandwidth."""
        return capacity_from_bandwidth(
            bandwidth_kbps, self.per_link_kbps, minimum=self.minimum
        )

    def capacities(self, bandwidths_kbps: list[float]) -> list[int]:
        """Vectorized :meth:`capacity`: one C-level pass, same ints."""
        if bandwidths_kbps and min(bandwidths_kbps) < 0:  # the scalar rule names it
            self.capacity(next(b for b in bandwidths_kbps if b < 0))
        ratios = map(floordiv, bandwidths_kbps, repeat(self.per_link_kbps))
        return list(map(max, repeat(self.minimum), map(int, ratios)))
