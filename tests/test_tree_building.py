"""Tests for the Section 5.1 tree-building (reverse-path) architecture."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multicast.tree_building import build_shared_tree
from repro.overlay.cam_chord import CamChordOverlay
from tests.conftest import make_snapshot, random_snapshot


class TestConstruction:
    def test_every_member_on_tree(self):
        snap = random_snapshot(12, 200, seed=1)
        overlay = CamChordOverlay(snap)
        tree = build_shared_tree(overlay, group_key=12345)
        assert set(tree.parent) == {n.ident for n in snap}

    def test_root_is_responsible_node(self):
        snap = random_snapshot(12, 50, seed=2)
        overlay = CamChordOverlay(snap)
        key = 999
        tree = build_shared_tree(overlay, group_key=key)
        assert tree.root_ident == snap.resolve(key).ident
        assert tree.parent[tree.root_ident] is None
        assert tree.depth[tree.root_ident] == 0

    def test_acyclic_and_rooted(self):
        snap = random_snapshot(12, 150, seed=3)
        overlay = CamChordOverlay(snap)
        tree = build_shared_tree(overlay, group_key=4242)
        for ident in tree.parent:
            seen = set()
            current: int | None = ident
            while current is not None:
                assert current not in seen  # no cycles
                seen.add(current)
                current = tree.parent[current]
            assert tree.root_ident in seen

    def test_depths_consistent(self):
        snap = random_snapshot(12, 100, seed=4)
        overlay = CamChordOverlay(snap)
        tree = build_shared_tree(overlay, group_key=7)
        for ident, parent in tree.parent.items():
            if parent is not None:
                assert tree.depth[ident] == tree.depth[parent] + 1

    def test_edges_follow_lookup_routes(self):
        """A node's tree parent is its next hop toward the key (reverse
        path forwarding)."""
        snap = make_snapshot(8, [0, 30, 60, 90, 120, 150, 180, 210], capacity=3)
        overlay = CamChordOverlay(snap)
        key = 100
        tree = build_shared_tree(overlay, group_key=key)
        root = snap.resolve(key).ident
        for node in snap:
            if node.ident == root:
                continue
            route = overlay.lookup(node, key).path
            # parent is the next node on this member's (possibly shared)
            # join route — i.e. some node later on the route
            later = {n.ident for n in route[1:]} | {root}
            assert tree.parent[node.ident] in later


class TestSection51Properties:
    def test_majority_are_leaves(self):
        snap = random_snapshot(13, 1000, seed=5, capacity_range=(6, 10))
        overlay = CamChordOverlay(snap)
        tree = build_shared_tree(overlay, group_key=5555)
        counts = tree.children_counts()
        leaves = sum(1 for c in counts.values() if c == 0)
        assert leaves > len(counts) / 2

    def test_capacity_violations_happen(self):
        """The §5.1 disparity: routing convergence near the root gives
        some nodes more children than their capacity allows."""
        snap = random_snapshot(13, 1000, seed=6, capacity_range=(4, 6))
        overlay = CamChordOverlay(snap)
        tree = build_shared_tree(overlay, group_key=31337)
        violations = tree.capacity_violations(snap)
        assert violations  # at least one overloaded node
        counts = tree.children_counts()
        assert max(counts.values()) > 6

    def test_forwarding_load_excludes_leaves(self):
        snap = random_snapshot(12, 300, seed=8)
        overlay = CamChordOverlay(snap)
        tree = build_shared_tree(overlay, group_key=99)
        load = tree.forwarding_load(message_count=10, message_kbits=2.0)
        counts = tree.children_counts()
        for ident, kbits in load.items():
            assert kbits == counts[ident] * 20.0


@settings(max_examples=30, deadline=None)
@given(
    idents=st.sets(st.integers(min_value=0, max_value=1023), min_size=2, max_size=60),
    key=st.integers(min_value=0, max_value=1023),
)
def test_tree_spans_all_members_property(idents, key):
    snap = make_snapshot(10, sorted(idents), capacity=4)
    overlay = CamChordOverlay(snap)
    tree = build_shared_tree(overlay, group_key=key)
    assert set(tree.parent) == set(idents)
    # exactly one root
    roots = [i for i, p in tree.parent.items() if p is None]
    assert roots == [tree.root_ident]
