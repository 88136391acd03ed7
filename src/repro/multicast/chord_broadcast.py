"""Broadcast over plain Chord, after El-Ansary et al. (IPTPS'03).

The source hands the message to all of its distinct fingers; each
finger becomes responsible for the segment between itself and the next
finger clockwise.  Every receiver repeats the rule inside its segment.
Delivery is exactly-once because the segments partition the ring.

Contrast with CAM-Chord (Section 3.4 discussion): here the out-degree
of a node near the root is ``O((k - 1) log_k n)`` — independent of the
node's capacity — and the subtree depths under the root range from
O(1) to O(log n): the tree is unbalanced by construction.  CAM-Chord's
routine fixes both properties; this module exists so the evaluation
can quantify the difference.
"""

from __future__ import annotations

from functools import partial

from repro.multicast.kernel import FlatTree, select_tree
from repro.overlay.base import Node
from repro.overlay.chord import ChordOverlay


def select_broadcast_children(
    overlay: ChordOverlay, node: Node, limit: int
) -> list[tuple[Node, int]]:
    """Children of ``node`` for the segment ``(node, limit]``.

    All distinct resolved fingers inside the segment become children;
    each child's subsegment ends just before the next child (the last
    child inherits ``limit``).
    """
    space = overlay.space
    snapshot = overlay.snapshot
    if space.segment_size(node.ident, limit) == 0:
        return []
    fingers: list[Node] = []
    seen: set[int] = set()
    for ident in overlay.neighbor_identifiers(node):
        resolved = snapshot.resolve(ident)
        if resolved.ident in seen or resolved.ident == node.ident:
            continue
        if not space.in_segment(resolved.ident, node.ident, limit):
            continue
        seen.add(resolved.ident)
        fingers.append(resolved)
    fingers.sort(key=lambda child: space.segment_size(node.ident, child.ident))
    children: list[tuple[Node, int]] = []
    for index, child in enumerate(fingers):
        if index + 1 < len(fingers):
            sublimit = space.sub(fingers[index + 1].ident, 1)
        else:
            sublimit = limit
        children.append((child, sublimit))
    return children


def chord_broadcast(overlay: ChordOverlay, source: Node) -> FlatTree:
    """Run a full broadcast from ``source`` and return the implicit tree.

    Raises ``KeyError`` when ``source`` is not a member."""
    return select_tree(
        overlay.snapshot, source, partial(select_broadcast_children, overlay)
    )
