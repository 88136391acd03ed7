"""Resilience measurement results."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class ResilienceReport:
    """Outcome of one churn experiment.

    ``delivery_ratios`` has one entry per multicast sent during the
    churn phase; ``duplicates_per_message`` measures the flooding
    control overhead; ``ring_consistency_samples`` records whether the
    successor invariant held each time it was probed.
    """

    system: str
    churn_rate: float
    delivery_ratios: list[float] = field(default_factory=list)
    duplicates_per_message: list[int] = field(default_factory=list)
    ring_consistency_samples: list[bool] = field(default_factory=list)
    final_membership: int = 0
    path_lengths: list[int] = field(default_factory=list)
    #: Per-message-kind drop/timeout accounting from the network layer
    #: (:meth:`repro.sim.network.NetworkStats.by_kind_summary`).
    network_summary: str = ""

    @property
    def has_measurements(self) -> bool:
        """True when at least one multicast was measured.

        Consumers that aggregate over many reports (the fault-injection
        campaign averages delivery across hundreds of plans) must skip
        empty runs, whose ratio properties are deliberately NaN — one
        unmeasured run would otherwise poison the whole average.
        """
        return bool(self.delivery_ratios)

    @property
    def mean_delivery_ratio(self) -> float:
        """Average delivery ratio over all multicasts.

        NaN when the run measured no multicasts — a run that sent
        nothing has no evidence of perfect delivery, and NaN poisons
        downstream averages instead of silently inflating them.
        """
        if not self.delivery_ratios:
            return float("nan")
        return sum(self.delivery_ratios) / len(self.delivery_ratios)

    @property
    def min_delivery_ratio(self) -> float:
        """Worst multicast of the run (NaN when nothing was measured)."""
        if not self.delivery_ratios:
            return float("nan")
        return min(self.delivery_ratios)

    @property
    def mean_duplicates(self) -> float:
        """Average redundant copies per multicast (flood overhead)."""
        if not self.duplicates_per_message:
            return 0.0
        return sum(self.duplicates_per_message) / len(self.duplicates_per_message)

    @property
    def ring_consistency_fraction(self) -> float:
        """Fraction of probes at which the ring invariant held."""
        if not self.ring_consistency_samples:
            return 1.0
        return sum(self.ring_consistency_samples) / len(self.ring_consistency_samples)

    def summary_row(self) -> str:
        """One formatted result row for experiment output."""
        return (
            f"{self.system:12s} churn={self.churn_rate:8.4f}/s "
            f"delivery(mean={self.mean_delivery_ratio:.4f} "
            f"min={self.min_delivery_ratio:.4f}) "
            f"dups/msg={self.mean_duplicates:8.1f} "
            f"ring_ok={self.ring_consistency_fraction:.2f} "
            f"members={self.final_membership}"
        )


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile, NaN-guarded on empty input.

    The NaN convention matches the ratio properties above: an empty
    sample carries no evidence, and NaN poisons a downstream aggregate
    instead of silently standing in for "fast".
    """
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]
