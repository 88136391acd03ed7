"""Structural statistics of one implicit multicast tree.

A tree (:class:`~repro.multicast.kernel.FlatTree`) is summarized in one
fused sweep over its flat arrays; the accumulations are integer until
the final divisions."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro import perf
from repro.multicast.kernel import FlatTree


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
    """All eight statistics in one pass over the kernel arrays."""
    perf.COUNTERS.array_passes += 1
    depths = result.depth_array
    counts = result.child_count
    histogram: Counter[int] = Counter()
    receivers = 0
    depth_total = 0
    depth_max = 0
    internal = 0
    children_total = 0
    children_max = 0
    for index in result.order:
        receivers += 1
        depth = depths[index]
        depth_total += depth
        if depth > depth_max:
            depth_max = depth
        histogram[depth] += 1
        count = counts[index]
        if count > 0:
            internal += 1
            children_total += count
            if count > children_max:
                children_max = count
    others = receivers - 1
    return TreeStats(
        receivers=receivers,
        average_path_length=depth_total / others if others else 0.0,
        max_path_length=depth_max,
        histogram=dict(sorted(histogram.items())),
        internal_count=internal,
        leaf_count=receivers - internal,
        average_children=children_total / internal if internal else 0.0,
        max_children=children_max,
    )
