"""Tests for proximity neighbor selection (Section 5.2)."""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multicast.cam_chord import cam_chord_multicast
from repro.multicast.proximity import (
    pns_cam_chord_multicast,
    select_children_pns,
    tree_delay_statistics,
)
from repro.overlay.base import Node
from repro.overlay.cam_chord import CamChordOverlay
from repro.sim.latency import GeographicLatency
from tests.conftest import make_snapshot, random_snapshot
from tests.dict_trees import hand_tree


def geo_delay(seed: int = 0):
    geo = GeographicLatency(jitter=0.0, placement_seed=seed)
    return lambda a, b: geo.delay(a, b, Random(0))


class TestSelectChildrenPns:
    def test_children_within_region_and_distinct(self):
        snap = random_snapshot(12, 150, seed=1)
        overlay = CamChordOverlay(snap)
        delay = geo_delay()
        node = snap.nodes[0]
        limit = overlay.space.sub(node.ident, 1)
        children = select_children_pns(overlay, node, limit, delay)
        idents = [child.ident for child, _ in children]
        assert len(idents) == len(set(idents))
        assert len(idents) <= node.capacity
        for child, sublimit in children:
            assert overlay.space.in_segment(child.ident, node.ident, limit)
            # region end never precedes the child
            assert overlay.space.segment_size(child.ident, sublimit) >= 0

    def test_empty_region(self):
        snap = random_snapshot(12, 10, seed=2)
        overlay = CamChordOverlay(snap)
        node = snap.nodes[0]
        assert select_children_pns(overlay, node, node.ident, geo_delay()) == []


class TestPnsMulticast:
    def test_exactly_once_random_topologies(self):
        for seed in range(5):
            snap = random_snapshot(12, 200, seed=seed)
            overlay = CamChordOverlay(snap)
            source = snap.random_node(Random(seed))
            tree = pns_cam_chord_multicast(overlay, source, geo_delay(seed))
            tree.verify_exactly_once({n.ident for n in snap})

    def test_capacity_bound_holds(self):
        snap = random_snapshot(12, 300, seed=7)
        overlay = CamChordOverlay(snap)
        tree = pns_cam_chord_multicast(overlay, snap.nodes[0], geo_delay())
        caps = {n.ident: n.capacity for n in snap}
        for ident, count in tree.children_counts().items():
            assert count <= caps[ident]

    def test_source_outside_the_group_is_rejected(self):
        """A non-member source used to root a 20-receiver tree; now it is
        refused like every other routine's."""
        snap = random_snapshot(12, 20, seed=8)
        ghost = Node(ident=next(x for x in range(4096) if x not in snap), capacity=4)
        with pytest.raises(KeyError, match=f"source {ghost.ident} is not a group member"):
            pns_cam_chord_multicast(CamChordOverlay(snap), ghost, geo_delay())

    def test_pns_not_slower_than_default(self):
        """On a geographic topology, least-delay choice should not lose
        to the default (averaged over several sources)."""
        snap = random_snapshot(13, 600, seed=3, capacity_range=(6, 12))
        overlay = CamChordOverlay(snap)
        delay = geo_delay(3)
        rng = Random(0)
        default_total = 0.0
        pns_total = 0.0
        for _ in range(3):
            source = snap.random_node(rng)
            d_mean, _ = tree_delay_statistics(
                cam_chord_multicast(overlay, source), delay
            )
            p_mean, _ = tree_delay_statistics(
                pns_cam_chord_multicast(overlay, source, delay), delay
            )
            default_total += d_mean
            pns_total += p_mean
        assert pns_total < default_total


class TestTreeDelayStatistics:
    def test_chain_sums(self):
        tree = hand_tree(make_snapshot(4, [0, 1, 2]), 0, [(0, 1), (1, 2)])
        mean, worst = tree_delay_statistics(tree, lambda a, b: 1.5)
        assert worst == 3.0
        assert mean == (1.5 + 3.0) / 2

    def test_source_only(self):
        tree = hand_tree(make_snapshot(4, [0]), 0)
        mean, worst = tree_delay_statistics(tree, lambda a, b: 1.0)
        assert mean == 0.0
        assert worst == 0.0


@settings(max_examples=40, deadline=None)
@given(
    idents=st.sets(st.integers(min_value=0, max_value=1023), min_size=2, max_size=60),
    caps=st.lists(st.integers(min_value=2, max_value=16), min_size=1, max_size=6),
    source_index=st.integers(min_value=0),
    placement=st.integers(min_value=0, max_value=5),
)
def test_pns_exactly_once_property(idents, caps, source_index, placement):
    ordered = sorted(idents)
    capacities = [max(2, caps[i % len(caps)]) for i in range(len(ordered))]
    snap = make_snapshot(10, ordered, capacity=capacities)
    overlay = CamChordOverlay(snap)
    source = snap.nodes[source_index % len(snap.nodes)]
    tree = pns_cam_chord_multicast(overlay, source, geo_delay(placement))
    tree.verify_exactly_once(set(ordered))
