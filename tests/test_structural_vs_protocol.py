"""Cross-mode integration: live protocol vs structural snapshot.

On a converged ring with accurate neighbor tables, the live CAM-Chord
peer executes the *same* region-splitting code against the *same*
resolver answers as the structural simulation — so the implicit trees
must coincide exactly (same receivers at the same depths).  This pins
the two halves of the library together: any divergence means either
the protocol's tables or the structural resolver drifted.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.multicast.cam_chord import cam_chord_multicast
from repro.multicast.cam_koorde import cam_koorde_multicast
from repro.overlay.cam_chord import CamChordOverlay
from repro.overlay.cam_koorde import CamKoordeOverlay
from repro.protocol import Cluster


@pytest.fixture(scope="module")
def chord_cluster() -> Cluster:
    rng = Random(21)
    capacities = [rng.randint(4, 10) for _ in range(40)]
    cluster = Cluster("cam-chord", capacities, space_bits=12, seed=21)
    cluster.bootstrap()
    # extra settle so every neighbor-table slot is resolved
    cluster.run(200)
    return cluster


@pytest.fixture(scope="module")
def koorde_cluster() -> Cluster:
    rng = Random(22)
    capacities = [rng.randint(4, 10) for _ in range(40)]
    cluster = Cluster("cam-koorde", capacities, space_bits=12, seed=22)
    cluster.bootstrap()
    cluster.run(200)
    return cluster


class TestCamChordTreeEquivalence:
    def test_tables_fully_accurate(self, chord_cluster):
        assert chord_cluster.neighbor_table_accuracy() == 1.0

    def test_same_tree_as_structural(self, chord_cluster):
        cluster = chord_cluster
        snapshot = cluster.live_snapshot()
        overlay = CamChordOverlay(snapshot)
        for source_ident in list(cluster.live_members())[:5]:
            structural = cam_chord_multicast(
                overlay, snapshot.node_at(source_ident)
            )
            mid = cluster.multicast_from(source_ident)
            cluster.run(10)
            live_depths = cluster.monitor.received[mid]
            assert live_depths == structural.depth

    def test_live_capacity_bound(self, chord_cluster):
        cluster = chord_cluster
        snapshot = cluster.live_snapshot()
        overlay = CamChordOverlay(snapshot)
        source = snapshot.nodes[0]
        structural = cam_chord_multicast(overlay, source)
        for ident, count in structural.children_counts().items():
            assert count <= snapshot.node_at(ident).capacity


class TestCamKoordeTreeEquivalence:
    def test_same_receivers_and_depths(self, koorde_cluster):
        """Flooding depends on message timing, so live depths can beat
        the structural BFS by at most... nothing: with uniform latency
        BFS order == arrival order, so depths must match too."""
        cluster = koorde_cluster
        snapshot = cluster.live_snapshot()
        overlay = CamKoordeOverlay(snapshot)
        for source_ident in list(cluster.live_members())[:5]:
            structural = cam_koorde_multicast(
                overlay, snapshot.node_at(source_ident)
            )
            mid = cluster.multicast_from(source_ident)
            cluster.run(10)
            live = cluster.monitor.received[mid]
            assert set(live) == set(structural.depth)
            assert live == structural.depth
