"""Structural statistics of one implicit multicast tree.

A tree (:class:`~repro.multicast.kernel.FlatTree`) is summarized by
C-level passes over its flat arrays; the accumulations are integer
until the final divisions."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro import perf
from repro.multicast.kernel import UNREACHED, FlatTree


@dataclass(frozen=True)
class TreeStats:
    """Summary of one implicit multicast tree.

    ``average_path_length`` / ``max_path_length`` are the paper's
    latency metrics (overlay hops from the source).  ``histogram`` is
    the Figure 9/10 statistic: how many nodes were reached in exactly
    ``h`` hops.  ``average_children`` is taken over internal (non-leaf)
    nodes, matching the Figure 6 x-axis.
    """

    receivers: int
    average_path_length: float
    max_path_length: int
    histogram: dict[int, int]
    internal_count: int
    leaf_count: int
    average_children: float
    max_children: int

    def coverage_complete(self, member_count: int) -> bool:
        """True when every member received the message."""
        return self.receivers == member_count


def summarize_tree(result: FlatTree) -> TreeStats:
    """All eight statistics from C-level passes over the kernel arrays:
    one count of every depth (an unreached member counts at
    ``UNREACHED`` and is dropped), a sum and a max of the children."""
    perf.COUNTERS.array_passes += 1
    histogram = Counter(result.depth_array)
    histogram.pop(UNREACHED, None)
    counts = result.child_count
    receivers = len(result.order)
    internal = len(counts) - counts.count(0)
    others = receivers - 1
    return TreeStats(
        receivers=receivers,
        average_path_length=(
            sum(depth * many for depth, many in histogram.items()) / others
            if others
            else 0.0
        ),
        max_path_length=max(histogram),
        histogram=dict(sorted(histogram.items())),
        internal_count=internal,
        leaf_count=receivers - internal,
        average_children=sum(counts) / internal if internal else 0.0,
        max_children=max(counts),
    )
