"""Proximity Neighbor Selection for CAM-Chord multicast (Section 5.2).

"A node x can choose any node whose identifier belongs to the segment
``[x + j*c^i, x + (j+1)*c^i)`` as the neighbor ``x_{i,j}``.  Given this
freedom, some heuristics (e.g., least delay first) may be used to
choose neighbors to promote geographic clustering."

The multicast routine needs the promised "superficial" modification:
with a freely-chosen child ``z`` (not necessarily the first member of
its window) the remaining-region boundary must shrink to ``z - 1``
rather than to the window start, so the members the choice skipped fall
into the next child's region.  Exactly-once delivery is preserved (see
the property tests).

Probing every window member is unrealistic (a window near the top
level holds ~n/c members), so — like deployed PNS implementations —
each window samples at most ``probe_limit`` candidates and picks the
lowest-delay one.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.multicast.kernel import FlatTree, select_tree
from repro.overlay.base import Node
from repro.overlay.cam_chord import CamChordOverlay, level_and_sequence, spare_sequences

#: delay(parent, candidate) -> cost used to rank window candidates
DelayFunction = Callable[[int, int], float]


def select_children_pns(
    overlay: CamChordOverlay,
    node: Node,
    limit: int,
    delay: DelayFunction,
    probe_limit: int = 16,
) -> list[tuple[Node, int]]:
    """Section 3.4 child selection with least-delay window choice."""
    space = overlay.space
    snapshot = overlay.snapshot
    distance = space.segment_size(node.ident, limit)
    if distance == 0:
        return []
    capacity = overlay.fanout(node)
    level, sequence = level_and_sequence(distance, capacity)

    selected: list[tuple[Node, int]] = []
    remaining_limit = limit

    def consider(lvl: int, seq: int) -> None:
        nonlocal remaining_limit
        # Work in clockwise offsets from the node so a window can never
        # wrap past the node itself (the top-level window may exceed the
        # ring otherwise and would swallow the source).
        start_offset = seq * capacity**lvl
        limit_offset = space.segment_size(node.ident, remaining_limit)
        if start_offset > limit_offset:
            return  # the window is entirely behind the remaining region
        end_offset = min(start_offset + capacity**lvl - 1, limit_offset)
        window_start = space.add(node.ident, start_offset)
        window_end = space.add(node.ident, end_offset)
        candidates = snapshot.nodes_in_segment(
            space.sub(window_start, 1), window_end, limit=probe_limit
        )
        if not candidates:
            return  # empty window: the next child's region absorbs it
        child = min(candidates, key=lambda c: delay(node.ident, c.ident))
        selected.append((child, remaining_limit))
        remaining_limit = space.sub(child.ident, 1)

    for seq in range(sequence, 0, -1):
        consider(level, seq)
    if level >= 1:
        for seq in reversed(spare_sequences(capacity, sequence)):
            consider(level - 1, seq)
    # Line 15: the successor picks up whatever remains.  Its window
    # [x+1, x+2) offers no selection freedom, so it is the one child
    # that must be the true ring successor — otherwise the members no
    # empty-window child absorbed would be lost.
    successor = snapshot.successor(node)
    if space.in_segment(successor.ident, node.ident, remaining_limit):
        selected.append((successor, remaining_limit))
    return selected


def pns_cam_chord_multicast(
    overlay: CamChordOverlay,
    source: Node,
    delay: DelayFunction,
    probe_limit: int = 16,
) -> FlatTree:
    """Full multicast with proximity neighbor selection at every hop.

    Raises ``KeyError`` when ``source`` is not a member."""
    select = partial(select_children_pns, overlay, delay=delay, probe_limit=probe_limit)
    return select_tree(overlay.snapshot, source, select)


def tree_delay_statistics(result: FlatTree, delay: DelayFunction) -> tuple[float, float]:
    """(mean, max) end-to-end delay from the source over all receivers.

    A receiver's delay is the sum of per-hop delays along its delivery
    path — the latency a pipelined transfer would see.  ``parent`` is in
    delivery order, so a parent's delay is known before its children's.
    """
    total: dict[int, float] = {}
    for ident, parent in result.parent.items():
        total[ident] = 0.0 if parent is None else total[parent] + delay(parent, ident)
    others = [value for ident, value in total.items() if ident != result.source_ident]
    mean = sum(others) / len(others) if others else 0.0
    return mean, max(total.values())
