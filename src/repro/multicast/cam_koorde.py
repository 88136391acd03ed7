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

from repro.overlay.base import Node
from repro.overlay.cam_koorde import CamKoordeOverlay


def cam_koorde_multicast(overlay: CamKoordeOverlay, source: Node):
    """Section 4.3 MULTICAST: flood over the CAM-Koorde links.

    The out-degree of every node in the implicit tree is bounded by its
    capacity automatically: a node has exactly ``c_x`` neighbors and
    one of them (its parent) already holds the message.  Executed by
    the flat-array kernel over the overlay's memoized CSR adjacency
    (each Section 4.1 group one strided run of the ring), edge-for-edge
    identical to a breadth-first dict flood over ``overlay.neighbors``
    (``tests/test_kernel.py``).
    """
    from repro.multicast.kernel import flood_tree

    return flood_tree(overlay, source)
