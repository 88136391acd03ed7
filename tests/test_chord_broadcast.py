"""Tests for the El-Ansary broadcast baseline."""

from __future__ import annotations

import math

import pytest

from repro.multicast.chord_broadcast import (
    chord_broadcast,
    select_broadcast_children,
)
from repro.overlay.base import Node
from repro.overlay.chord import ChordOverlay
from tests.conftest import make_snapshot, random_snapshot


class TestSelectBroadcastChildren:
    def test_children_partition_segment(self):
        snap = random_snapshot(10, 60, seed=1)
        overlay = ChordOverlay(snap, base=2)
        node = snap.nodes[0]
        limit = overlay.space.sub(node.ident, 1)
        children = select_broadcast_children(overlay, node, limit)
        # children are distinct actual fingers inside the segment
        idents = [child.ident for child, _ in children]
        assert len(idents) == len(set(idents))
        # consecutive subsegments tile (first_child, limit]
        for (child, sublimit), (nxt, _) in zip(children, children[1:]):
            assert overlay.space.add(sublimit, 1) == nxt.ident
        assert children[-1][1] == limit

    def test_empty_region(self):
        snap = random_snapshot(10, 10, seed=2)
        overlay = ChordOverlay(snap, base=2)
        node = snap.nodes[0]
        assert select_broadcast_children(overlay, node, node.ident) == []

    def test_first_child_is_successor(self):
        snap = random_snapshot(10, 40, seed=3)
        overlay = ChordOverlay(snap, base=2)
        node = snap.nodes[0]
        limit = overlay.space.sub(node.ident, 1)
        children = select_broadcast_children(overlay, node, limit)
        assert children[0][0].ident == snap.successor(node).ident


class TestChordBroadcast:
    def test_root_degree_matches_distinct_fingers(self):
        """El-Ansary's root forwards to every distinct finger: out-degree
        ~ (base-1) * log_base(n), way above the base."""
        snap = random_snapshot(14, 2000, seed=4)
        overlay = ChordOverlay(snap, base=2)
        source = snap.nodes[0]
        tree = chord_broadcast(overlay, source)
        root_degree = tree.children_counts()[source.ident]
        assert root_degree > math.log2(2000) * 0.6
        distinct_fingers = len(overlay.neighbors(source))
        assert root_degree <= distinct_fingers

    def test_unbalanced_subtrees(self):
        """The paper's Section 3.4 critique: subtree depths under the
        root range from O(1) to O(log n)."""
        snap = random_snapshot(14, 2000, seed=5)
        overlay = ChordOverlay(snap, base=2)
        source = snap.nodes[0]
        tree = chord_broadcast(overlay, source)
        depth_by_root_child: dict[int, int] = {}
        for ident in tree.parent:
            path = tree.path_to_source(ident)
            if len(path) < 2:
                continue
            top = path[-2]  # the root's child this node sits under
            depth = len(path) - 1
            depth_by_root_child[top] = max(depth_by_root_child.get(top, 0), depth)
        depths = sorted(depth_by_root_child.values())
        assert depths[0] <= 2          # some subtree is trivially shallow
        assert depths[-1] >= depths[0] + 3  # and some is much deeper

    def test_small_ring(self):
        snap = make_snapshot(6, [0, 5, 20, 40], capacity=2)
        overlay = ChordOverlay(snap, base=2)
        tree = chord_broadcast(overlay, snap.node_at(5))
        tree.verify_exactly_once({0, 5, 20, 40})

    def test_source_outside_the_group_is_rejected(self):
        """A non-member source used to come back as a 21-receiver tree
        that included it; now it is refused like every other routine's."""
        snap = random_snapshot(10, 20, seed=8)
        ghost = Node(ident=next(x for x in range(1024) if x not in snap), capacity=4)
        with pytest.raises(KeyError, match=f"source {ghost.ident} is not a group member"):
            chord_broadcast(ChordOverlay(snap, base=2), ghost)

    def test_every_source_covers(self):
        snap = random_snapshot(10, 50, seed=6)
        overlay = ChordOverlay(snap, base=4)
        members = {n.ident for n in snap}
        for source in snap.nodes:
            chord_broadcast(overlay, source).verify_exactly_once(members)


class TestBalancedVsElAnsary:
    def test_same_coverage_different_shape(self):
        from repro.multicast.cam_chord import cam_chord_multicast

        snap = random_snapshot(13, 1500, seed=7)
        overlay = ChordOverlay(snap, base=4)
        source = snap.nodes[0]
        members = {n.ident for n in snap}
        balanced = cam_chord_multicast(overlay, source)
        el_ansary = chord_broadcast(overlay, source)
        balanced.verify_exactly_once(members)
        el_ansary.verify_exactly_once(members)
        assert max(balanced.children_counts().values()) <= 4
        assert max(el_ansary.children_counts().values()) > 4
