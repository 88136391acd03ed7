"""Tests for the flooding disseminators (CAM-Koorde and Koorde)."""

from __future__ import annotations

from random import Random

from repro.multicast.cam_koorde import cam_koorde_multicast
from repro.multicast.koorde_flood import koorde_flood
from repro.overlay.cam_koorde import CamKoordeOverlay
from repro.overlay.koorde import KoordeOverlay
from tests.conftest import make_snapshot, random_snapshot


class TestFloodMulticast:
    def test_bfs_depths_are_shortest_paths(self):
        """Flood depth equals the shortest overlay path from the source
        (verified against a reference BFS over the neighbor relation)."""
        snap = random_snapshot(10, 80, seed=1)
        overlay = CamKoordeOverlay(snap)
        source = snap.nodes[0]
        tree = cam_koorde_multicast(overlay, source)

        # reference BFS over the (directed) neighbor relation
        from collections import deque

        dist = {source.ident: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for neighbor in overlay.neighbors(node):
                if neighbor.ident not in dist:
                    dist[neighbor.ident] = dist[node.ident] + 1
                    queue.append(neighbor)
        assert tree.depth == dist

    def test_parent_is_a_neighbor(self):
        """Every delivery edge is an actual overlay link."""
        snap = random_snapshot(10, 60, seed=3)
        overlay = CamKoordeOverlay(snap)
        tree = cam_koorde_multicast(overlay, snap.nodes[0])
        for child, parent in tree.parent.items():
            if parent is None:
                continue
            parent_node = snap.node_at(parent)
            neighbor_idents = {n.ident for n in overlay.neighbors(parent_node)}
            assert child in neighbor_idents


class TestKoordeFlood:
    def test_two_node_ring(self):
        snap = make_snapshot(6, [3, 40], capacity=4)
        overlay = KoordeOverlay(snap, degree=2)
        tree = koorde_flood(overlay, snap.node_at(3))
        tree.verify_exactly_once({3, 40})

    def test_effective_fanout_grows_with_degree(self):
        """With consecutive-member pointers the flood fanout tracks the
        configured degree (the capacity-oblivious sweep of Figure 6)."""
        snap = random_snapshot(13, 1500, seed=4)
        averages = {}
        for degree in (2, 8):
            overlay = KoordeOverlay(snap, degree=degree)
            tree = koorde_flood(overlay, snap.nodes[0])
            internal = [c for c in tree.children_counts().values() if c > 0]
            averages[degree] = sum(internal) / len(internal)
        assert averages[8] > averages[2]

    def test_deeper_than_cam_koorde_at_same_capacity(self):
        """Koorde's clustered pointers cover the ring less efficiently
        than CAM-Koorde's spread ones: deeper trees at equal degree."""
        rng = Random(5)
        snap = random_snapshot(14, 3000, seed=5, capacity_range=(8, 8))
        koorde_overlay = KoordeOverlay(snap, degree=6)  # 6 + pred + succ = 8 links
        cam_overlay = CamKoordeOverlay(snap)
        source = snap.random_node(rng)
        koorde_tree = koorde_flood(koorde_overlay, source)
        cam_tree = cam_koorde_multicast(cam_overlay, source)
        assert koorde_tree.average_path_length() > cam_tree.average_path_length()
