"""Tests for the acknowledged-and-repaired CAM-Chord multicast.

The baseline Section 3.4 routine is fire-and-forget: a stale neighbor
entry silently loses the whole subtree behind it.  The reliable
extension acks every region handoff and, when a child stays silent,
re-resolves the region's owner via a lookup and resends — turning
crash-windows from subtree losses into one extra round trip.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.protocol import Cluster, ProtocolConfig


def build(reliable: bool, count: int = 40, seed: int = 51, loss: float = 0.0):
    rng = Random(seed)
    capacities = [rng.randint(4, 10) for _ in range(count)]
    cluster = Cluster(
        "cam-chord",
        capacities,
        space_bits=13,
        seed=seed,
        loss_rate=loss,
        config=ProtocolConfig(reliable_multicast=reliable),
    )
    cluster.bootstrap()
    return cluster


class TestStableRing:
    def test_reliable_mode_full_delivery_no_duplicates(self):
        cluster = build(reliable=True)
        mid = cluster.multicast_from(cluster.random_live_peer(Random(0)).ident)
        cluster.run(15)
        assert cluster.delivery_ratio(mid) == 1.0
        assert cluster.monitor.duplicates.get(mid, 0) == 0


class TestCrashWindow:
    @pytest.mark.parametrize("reliable", [False, True])
    def test_delivery_after_crashes(self, reliable):
        cluster = build(reliable=reliable, seed=52)
        survivors_needed = cluster.random_live_peer(Random(1)).ident
        victims = [
            ident
            for ident in sorted(cluster.live_members())[::4]
            if ident != survivors_needed
        ]
        for victim in victims:
            cluster.remove_peer(victim, crash=True)
        mid = cluster.multicast_from(survivors_needed)
        # repair needs several timeout+stabilize+lookup rounds per dead
        # link along the deepest repaired path
        cluster.run(90)
        ratio = cluster.delivery_ratio(mid)
        if reliable:
            assert ratio > 0.97
        # record both so the comparison below is meaningful
        type(self).ratios = getattr(type(self), "ratios", {})
        type(self).ratios[reliable] = ratio

    def test_reliable_beats_baseline(self):
        ratios = getattr(type(self), "ratios", {})
        if len(ratios) == 2:
            assert ratios[True] >= ratios[False]


class TestLossyLinks:
    def test_reliable_mode_survives_message_loss(self):
        cluster = build(reliable=True, loss=0.08, seed=53)
        mid = cluster.multicast_from(cluster.random_live_peer(Random(2)).ident)
        cluster.run(20)
        assert cluster.delivery_ratio(mid) > 0.98

    def test_baseline_loses_subtrees_to_message_loss(self):
        cluster = build(reliable=False, loss=0.08, seed=53)
        ratios = []
        for _ in range(3):
            mid = cluster.multicast_from(cluster.random_live_peer(Random(2)).ident)
            cluster.run(20)
            ratios.append(cluster.delivery_ratio(mid))
        assert min(ratios) < 1.0
