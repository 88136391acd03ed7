"""Flooding multicast with duplicate suppression (Section 4.3).

"When a node receives a multicast message, it forwards the message to
all neighbors except those that have received or are receiving the
message."  Neighbor links are bidirectional, so the check is a short
control handshake; the data message itself is sent at most once per
receiver.

The structural simulation models the distributed execution as a
breadth-first wave: all nodes that received the message at hop ``h``
forward during hop ``h + 1``.  Breadth-first order is the right model
because every node starts forwarding as soon as the first packet of a
message arrives (the paper's per-packet pipelining), so a node is
always reached along a shortest overlay path from the source.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro import perf
from repro.multicast.delivery import MulticastResult
from repro.overlay.base import Node, Overlay
from repro.overlay.cam_koorde import CamKoordeOverlay
from repro.trace.tracer import TRACER


def flood_multicast(
    overlay: Overlay,
    source: Node,
    fanout_limit: Callable[[Node], int] | None = None,
) -> MulticastResult:
    """Flood from ``source`` over ``overlay``'s neighbor relation.

    ``fanout_limit`` optionally caps how many *new* receivers a node
    may serve (a node never forwards to more than that many children).
    CAM-Koorde needs no cap — a node's neighbor count *is* its capacity
    — but the plain-Koorde baseline uses the cap to model nodes that
    refuse work beyond their configured degree.

    This is the ``record_delivery``-built object-tree path, kept as the
    executable specification of the flood (the kernel in
    :mod:`repro.multicast.kernel` is property-tested against it) and
    for capped floods, which the kernel does not model.
    """
    result = MulticastResult(source_ident=source.ident)
    queue: deque[Node] = deque([source])
    while queue:
        node = queue.popleft()
        budget = fanout_limit(node) if fanout_limit is not None else None
        for neighbor in overlay.neighbors(node):
            if budget is not None and budget <= 0:
                break
            if result.was_delivered(neighbor.ident):
                continue
            result.record_delivery(neighbor.ident, node.ident)
            queue.append(neighbor)
            if budget is not None:
                budget -= 1
    perf.COUNTERS.multicast_trees += 1
    perf.COUNTERS.deliveries += result.messages_sent
    if TRACER.enabled:
        # One summary event per structural tree (see cam_chord note).
        TRACER.emit(
            0.0, "mc", "tree", source=source.ident, edges=result.messages_sent
        )
    return result


def cam_koorde_multicast(overlay: CamKoordeOverlay, source: Node):
    """Section 4.3 MULTICAST: flood over the CAM-Koorde links.

    The out-degree of every node in the implicit tree is bounded by its
    capacity automatically: a node has exactly ``c_x`` neighbors and
    one of them (its parent) already holds the message.  Executed by
    the flat-array kernel over the overlay's memoized CSR adjacency
    (each Section 4.1 group one strided run of the ring), edge-for-edge
    identical to :func:`flood_multicast`.
    """
    from repro.multicast.kernel import flood_tree

    return flood_tree(overlay, source)
