"""Tests for the cluster driver API."""

from __future__ import annotations

import signal
from random import Random

import pytest

from repro.churn import ChurnExperiment
from repro.protocol import CamChordPeer, Cluster
from repro.sim.latency import UniformLatency


@pytest.fixture(scope="module")
def cluster() -> Cluster:
    rng = Random(31)
    capacities = [rng.randint(4, 10) for _ in range(25)]
    cluster = Cluster(
        "cam-chord",
        capacities,
        bandwidths=[600.0] * 25,
        space_bits=12,
        seed=31,
        latency=UniformLatency(0.01, 0.05),
    )
    cluster.bootstrap()
    return cluster


class TestClusterApi:
    def test_live_members_and_peers_agree(self, cluster):
        assert {p.ident for p in cluster.live_peers()} == cluster.live_members()
        assert len(cluster.live_members()) == 25

    def test_live_snapshot_mirrors_peers(self, cluster):
        snapshot = cluster.live_snapshot()
        assert len(snapshot) == len(cluster.live_members())
        for peer in cluster.live_peers():
            node = snapshot.node_at(peer.ident)
            assert node.capacity == peer.capacity
            assert node.bandwidth_kbps == peer.bandwidth_kbps

    def test_random_live_peer_seeded(self, cluster):
        a = cluster.random_live_peer(Random(1)).ident
        b = cluster.random_live_peer(Random(1)).ident
        assert a == b

    def test_add_peer_uses_fresh_identifier(self, cluster):
        before = set(cluster.peers)
        newcomer = cluster.add_peer(capacity=5, bandwidth=700.0)
        assert newcomer.ident not in before
        cluster.run(60)
        assert newcomer.alive

    def test_remove_unknown_peer_raises(self, cluster):
        with pytest.raises(KeyError):
            cluster.remove_peer(-1)

    def test_delivery_ratio_of_fresh_message(self, cluster):
        mid = cluster.multicast_from(cluster.random_live_peer(Random(2)).ident)
        cluster.run(10)
        assert cluster.delivery_ratio(mid) == 1.0


class TestClusterEdgeCases:
    def test_single_member_cluster(self):
        cluster = Cluster("cam-chord", [4], space_bits=10, seed=1)
        cluster.bootstrap()
        assert cluster.ring_consistent()
        mid = cluster.multicast_from(cluster.live_peers()[0].ident)
        cluster.run(5)
        assert cluster.delivery_ratio(mid) == 1.0

    def test_all_but_two_crash(self):
        rng = Random(7)
        cluster = Cluster(
            "cam-chord", [rng.randint(4, 8) for _ in range(12)],
            space_bits=10, seed=7,
        )
        cluster.bootstrap()
        for victim in sorted(cluster.live_members())[:-2]:
            cluster.remove_peer(victim, crash=True)
        cluster.run(120)
        assert len(cluster.live_members()) == 2
        assert cluster.ring_consistent()

    def test_lossy_network_still_converges(self):
        rng = Random(8)
        cluster = Cluster(
            "cam-chord", [rng.randint(4, 8) for _ in range(15)],
            space_bits=10, seed=8, loss_rate=0.1,
        )
        cluster.bootstrap()
        assert cluster.ring_consistent()

    def test_add_peer_raises_once_the_identifier_space_is_exhausted(self):
        """Crashed peers keep their identifiers, so a full space has no
        fresh one left: the join must raise, not draw forever."""

        def hang(signum, frame):
            raise TimeoutError("add_peer kept drawing identifiers")

        cluster = Cluster("cam-chord", [4] * 6, space_bits=3, seed=1)
        cluster.bootstrap()
        cluster.add_peer(capacity=4)
        cluster.remove_peer(cluster.add_peer(capacity=4).ident)
        assert len(cluster.peers) == cluster.space.size
        previous = signal.signal(signal.SIGALRM, hang)
        signal.setitimer(signal.ITIMER_REAL, 10.0)
        try:
            with pytest.raises(RuntimeError, match="identifier space exhausted"):
                cluster.add_peer(capacity=4)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


class TestOneWayToNameASystem:
    """A live system is a registry descriptor; a raw peer class is not
    one (a mutant peer is a descriptor whose ``peer_loader`` is
    overridden, see ``tests/test_faults_mutation.py``)."""

    def test_cluster_rejects_a_raw_peer_class(self):
        with pytest.raises(TypeError, match="cannot resolve a system"):
            Cluster(CamChordPeer, [4] * 4, space_bits=10, seed=1)

    def test_churn_experiment_rejects_a_raw_peer_class(self):
        with pytest.raises(TypeError, match="cannot resolve a system"):
            ChurnExperiment(CamChordPeer, [4] * 4, space_bits=10, seed=1)
