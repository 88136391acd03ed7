"""Flooding multicast over plain Koorde — the de Bruijn baseline.

Identical dissemination rule to CAM-Koorde (Section 4.3), but over
Koorde's left-shift neighbor links.  Because those links differ only in
their low-order bits, a node's neighbors cluster on the ring and often
resolve to the same physical node: the effective fanout collapses, the
implicit trees get deep, and — since the degree is uniform regardless
of upload bandwidth — a slow node with full fanout throttles the whole
session.  Both effects are exactly what Figures 6 and 11 hold against
Koorde.
"""

from __future__ import annotations

from repro.overlay.base import Node
from repro.overlay.koorde import KoordeOverlay


def koorde_flood(overlay: KoordeOverlay, source: Node):
    """Flood from ``source`` over the Koorde links.

    Connectivity note: de Bruijn links plus the ring (every node knows
    predecessor and successor) keep the overlay connected, so the flood
    always reaches every member even when the de Bruijn pointers of a
    whole region collapse onto one node.  Executed by the flat-array
    kernel (:mod:`repro.multicast.kernel`): a node's pointers are a run
    of members, kept as one start per member.
    """
    from repro.multicast.kernel import flood_tree

    return flood_tree(overlay, source)
