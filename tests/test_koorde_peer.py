"""Integration tests for the live plain-Koorde baseline peer."""

from __future__ import annotations

from random import Random

import pytest

from repro.protocol import Cluster


def make_cluster(count: int, degree: int = 4, seed: int = 1, bits: int = 12) -> Cluster:
    return Cluster(
        "koorde", [degree] * count, space_bits=bits, seed=seed, uniform_fanout=degree
    )


class TestBootstrap:
    def test_ring_converges(self):
        cluster = make_cluster(30)
        cluster.bootstrap()
        assert cluster.ring_consistent()

    def test_window_points_at_consecutive_members(self):
        cluster = make_cluster(30, degree=4, seed=2)
        cluster.bootstrap()
        cluster.run(120)  # window refresh is one slot per fix interval
        snapshot = cluster.live_snapshot()
        checked = 0
        for peer in cluster.live_peers():
            anchor_ident = (peer.degree * peer.ident) % cluster.space.size
            expected_anchor = snapshot.resolve(anchor_ident)
            believed = peer.neighbor_table.get(("debruijn", 0))
            if expected_anchor.ident == peer.ident:
                assert believed is None
                continue
            assert believed == expected_anchor.ident
            # followers are the anchor's ring successors, in order
            cursor = expected_anchor
            for index in range(1, peer.degree):
                cursor = snapshot.successor(cursor)
                if cursor.ident in (peer.ident, expected_anchor.ident):
                    break
                entry = peer.neighbor_table.get(("debruijn", index))
                if entry is not None:
                    assert entry == cursor.ident
            checked += 1
        assert checked > 20

    def test_degree_validated(self):
        with pytest.raises(ValueError):
            make_cluster(3, degree=0)


class TestFloodMulticast:
    def test_full_delivery_on_stable_ring(self):
        cluster = make_cluster(40, degree=4, seed=3)
        cluster.bootstrap()
        cluster.run(120)
        mid = cluster.multicast_from(cluster.random_live_peer(Random(0)).ident)
        cluster.run(10)
        assert cluster.delivery_ratio(mid) == 1.0

    def test_survives_crashes_like_a_flood(self):
        cluster = make_cluster(40, degree=4, seed=4)
        cluster.bootstrap()
        cluster.run(120)
        for victim in sorted(cluster.live_members())[::6]:
            cluster.remove_peer(victim, crash=True)
        mid = cluster.multicast_from(cluster.random_live_peer(Random(1)).ident)
        cluster.run(10)
        # flooding redundancy: ring + de Bruijn window keeps most of
        # the group reachable even before tables repair
        assert cluster.delivery_ratio(mid) > 0.9

    def test_uniform_fanout_regardless_of_bandwidth(self):
        """The baseline property: link budget is the degree, not B_x."""
        cluster = Cluster(
            "koorde",
            [4] * 20,
            bandwidths=[100.0 + 50 * i for i in range(20)],
            space_bits=12,
            seed=5,
            uniform_fanout=4,
        )
        cluster.bootstrap()
        cluster.run(120)
        for peer in cluster.live_peers():
            assert len(peer.flood_links()) <= peer.degree + 2
