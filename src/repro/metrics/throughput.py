"""The bottleneck throughput model of Section 6.1.

"Due to limited buffer space at each node, the sustainable multicast
throughput is decided by the link with the least allocated bandwidth in
the multicast tree."  A node with upload bandwidth ``B_x`` and ``d_x``
children in the tree allocates ``B_x / d_x`` to each child link, so

    throughput = min over internal nodes x of  B_x / d_x.

For the CAM systems ``d_x <= c_x = floor(B_x / p)`` guarantees every
allocation is at least ``p``: throughput never drops below the
configured per-link rate no matter how the tree turned out.  For the
capacity-oblivious baselines a low-bandwidth node can end up with a
large fanout and throttle the entire session — the effect Figure 6
quantifies.
"""

from __future__ import annotations

from itertools import compress
from operator import truediv

from repro import perf
from repro.multicast.kernel import FlatTree
from repro.overlay.base import RingSnapshot


def allocated_link_bandwidths(result: FlatTree, snapshot: RingSnapshot) -> dict[int, float]:
    """Per-internal-node allocated bandwidth ``B_x / d_x`` in kbps."""
    perf.COUNTERS.array_passes += 1
    counts = result.child_count
    idents = result.snapshot.identifiers
    bandwidths = result.snapshot.bandwidths
    allocations: dict[int, float] = {}
    for index in result.order:
        count = counts[index]
        if count == 0:
            continue
        bandwidth = bandwidths[index]
        if bandwidth <= 0:
            raise _no_bandwidth(idents[index])
        allocations[idents[index]] = bandwidth / count
    return allocations


def sustainable_throughput(result: FlatTree, snapshot: RingSnapshot) -> float:
    """The session's sustainable data rate in kbps (single-node groups
    have nothing to forward, reported as the source's full bandwidth).

    The minimum of the same quotients as
    :func:`allocated_link_bandwidths`, taken in C: the bandwidths of
    the rows with children over those rows' child counts.  A forwarder
    with no bandwidth sends the check back to the delivery-order loop,
    so the error names the first one the tree reached."""
    perf.COUNTERS.array_passes += 1
    counts = result.child_count
    bandwidths = result.snapshot.bandwidths
    if min(compress(bandwidths, counts), default=1.0) <= 0:
        for index in result.order:
            if counts[index] and bandwidths[index] <= 0:
                raise _no_bandwidth(result.snapshot.identifiers[index])
    bottleneck = min(
        map(truediv, compress(bandwidths, counts), filter(None, counts)), default=None
    )
    if bottleneck is None:
        return snapshot.node_at(result.source_ident).bandwidth_kbps
    return bottleneck


def _no_bandwidth(ident: int) -> ValueError:
    return ValueError(
        f"node {ident} has no bandwidth assigned; build the snapshot with "
        "per-node bandwidths to use the throughput model"
    )


def average_children_per_internal_node(result: FlatTree) -> float:
    """The Figure 6 x-axis: mean out-degree over non-leaf tree nodes."""
    perf.COUNTERS.array_passes += 1
    internal = 0
    total = 0
    for count in result.child_count:
        if count > 0:
            internal += 1
            total += count
    if internal == 0:
        return 0.0
    return total / internal
