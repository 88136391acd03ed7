"""Integration tests for the live maintenance protocol."""

from __future__ import annotations

from random import Random

import pytest

from repro.protocol import Cluster, ProtocolConfig
from repro.protocol.base_peer import DeliveryMonitor


def make_cluster(system, count, seed=1, bits=12, caps=None, **kwargs):
    rng = Random(seed)
    capacities = caps if caps is not None else [rng.randint(4, 10) for _ in range(count)]
    return Cluster(system, capacities, space_bits=bits, seed=seed, **kwargs)


class TestProtocolConfig:
    def test_defaults_valid(self):
        ProtocolConfig()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("stabilize_interval", 0),
            ("fix_neighbors_interval", -1),
            ("check_predecessor_interval", 0),
            ("successor_list_size", 0),
            ("rpc_timeout", 0),
            ("lookup_max_hops", 0),
            ("lookup_retries", -1),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            ProtocolConfig(**{field: value})


class TestBootstrap:
    def test_single_node_ring(self):
        cluster = make_cluster("cam-chord", 1)
        cluster.bootstrap()
        (peer,) = cluster.live_peers()
        assert peer.successor == peer.ident
        assert cluster.ring_consistent()

    def test_two_node_ring(self):
        cluster = make_cluster("cam-chord", 2)
        cluster.bootstrap()
        a, b = cluster.live_peers()
        assert a.successor == b.ident
        assert b.successor == a.ident
        assert a.predecessor == b.ident
        assert b.predecessor == a.ident

    def test_ring_converges_cam_chord(self):
        cluster = make_cluster("cam-chord", 40)
        cluster.bootstrap()
        assert cluster.ring_consistent()
        assert cluster.neighbor_table_accuracy() > 0.9

    def test_ring_converges_cam_koorde(self):
        cluster = make_cluster("cam-koorde", 40)
        cluster.bootstrap()
        assert cluster.ring_consistent()
        assert cluster.neighbor_table_accuracy() > 0.9


class TestStableMulticast:
    def test_cam_chord_full_delivery(self):
        cluster = make_cluster("cam-chord", 50, seed=3)
        cluster.bootstrap()
        mid = cluster.multicast_from(cluster.random_live_peer().ident)
        cluster.run(10)
        assert cluster.delivery_ratio(mid) == 1.0
        # the implicit tree respects capacities: depth recorded everywhere
        assert len(cluster.monitor.received[mid]) == 50

    def test_cam_koorde_full_delivery(self):
        cluster = make_cluster("cam-koorde", 50, seed=3)
        cluster.bootstrap()
        mid = cluster.multicast_from(cluster.random_live_peer().ident)
        cluster.run(10)
        assert cluster.delivery_ratio(mid) == 1.0

    def test_any_source(self):
        cluster = make_cluster("cam-chord", 25, seed=4)
        cluster.bootstrap()
        mids = [cluster.multicast_from(p.ident) for p in cluster.live_peers()[:5]]
        cluster.run(15)
        for mid in mids:
            assert cluster.delivery_ratio(mid) == 1.0

    def test_multicast_from_dead_peer_rejected(self):
        cluster = make_cluster("cam-chord", 5, seed=5)
        cluster.bootstrap()
        victim = cluster.live_peers()[0]
        cluster.remove_peer(victim.ident)
        with pytest.raises(RuntimeError):
            cluster.multicast_from(victim.ident)


class TestChurnHandling:
    def test_join_after_bootstrap(self):
        cluster = make_cluster("cam-chord", 20, seed=6)
        cluster.bootstrap()
        newcomer = cluster.add_peer(capacity=6)
        cluster.run(60)
        assert newcomer.alive
        assert cluster.ring_consistent()
        assert newcomer.ident in cluster.live_members()

    def test_graceful_leave_repairs_quickly(self):
        cluster = make_cluster("cam-chord", 20, seed=7)
        cluster.bootstrap()
        victim = cluster.live_peers()[5]
        cluster.remove_peer(victim.ident, crash=False)
        cluster.run(30)
        assert cluster.ring_consistent()
        assert victim.ident not in cluster.live_members()

    def test_crash_repair(self):
        cluster = make_cluster("cam-chord", 30, seed=8)
        cluster.bootstrap()
        victims = [p.ident for p in cluster.live_peers()[::6]]
        for victim in victims:
            cluster.remove_peer(victim, crash=True)
        cluster.run(120)
        assert cluster.ring_consistent()
        assert len(cluster.live_members()) == 30 - len(victims)

    def test_flooding_survives_crashes_better_than_tree(self):
        """The paper's resilience comparison, in miniature: crash 20%
        of members, multicast immediately, flooding delivers more."""
        ratios = {}
        for system in ("cam-chord", "cam-koorde"):
            cluster = make_cluster(system, 40, seed=9)
            cluster.bootstrap()
            live = cluster.live_peers()
            for victim in live[:: 5]:
                cluster.remove_peer(victim.ident, crash=True)
            source = cluster.random_live_peer()
            mid = cluster.multicast_from(source.ident)
            cluster.run(5)
            ratios[system] = cluster.delivery_ratio(mid)
        assert ratios["cam-koorde"] >= ratios["cam-chord"]
        assert ratios["cam-koorde"] > 0.95

    def test_message_loss_tolerated_by_flooding(self):
        cluster = make_cluster("cam-koorde", 30, seed=10, loss_rate=0.05)
        cluster.bootstrap()
        mid = cluster.multicast_from(cluster.random_live_peer().ident)
        cluster.run(10)
        assert cluster.delivery_ratio(mid) > 0.9


class TestDeliveryMonitor:
    def test_ratio_excludes_departed(self):
        monitor = DeliveryMonitor()
        monitor.message_sent(1, source=10, members={10, 20, 30, 40})
        monitor.delivered(1, 10, 0)  # the source reports its own copy
        monitor.delivered(1, 20, 1)
        # 30 left the group; 40 never got it
        assert monitor.delivery_ratio(1, still_alive={10, 20, 40}) == pytest.approx(
            2 / 3
        )

    def test_duplicate_counting(self):
        monitor = DeliveryMonitor()
        monitor.message_sent(1, source=10, members={10, 20})
        monitor.delivered(1, 20, 1)
        monitor.delivered(1, 20, 2)  # second delivery = duplicate
        monitor.duplicate(1, 20)
        assert monitor.duplicates[1] == 2

    def test_path_lengths_exclude_source(self):
        monitor = DeliveryMonitor()
        monitor.message_sent(5, source=1, members={1, 2, 3})
        monitor.delivered(5, 2, 1)
        monitor.delivered(5, 3, 2)
        assert sorted(monitor.path_lengths(5)) == [1, 2]

    def test_unknown_message_ratio_is_one(self):
        monitor = DeliveryMonitor()
        assert monitor.delivery_ratio(99, still_alive={1}) == 1.0
