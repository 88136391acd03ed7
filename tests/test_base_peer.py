"""Unit tests for the peer internals (no full cluster required)."""

from __future__ import annotations

import pytest

from repro.idspace.ring import IdentifierSpace
from repro.protocol.base_peer import BasePeer
from repro.protocol.cam_chord_peer import CamChordPeer
from repro.protocol.cam_koorde_peer import CamKoordePeer
from repro.protocol.config import ProtocolConfig
from repro.sim.engine import Simulator
from repro.sim.network import Network

SPACE = IdentifierSpace(8)  # ring of 256


def make_peer(ident: int, capacity: int = 5, peer_class=CamChordPeer) -> BasePeer:
    sim = Simulator()
    network = Network(sim)
    return peer_class(ident, capacity, network, SPACE, config=ProtocolConfig())


class TestLocalNextHop:
    def test_single_node_claims_everything(self):
        peer = make_peer(10)
        done, ident = peer.local_next_hop(200, exclude=set())
        assert done and ident == 10

    def test_key_in_own_segment(self):
        peer = make_peer(100)
        peer.predecessor = 50
        peer.successors = [150]
        done, ident = peer.local_next_hop(80, exclude=set())
        assert done and ident == 100

    def test_key_in_successor_segment(self):
        peer = make_peer(100)
        peer.predecessor = 50
        peer.successors = [150]
        done, ident = peer.local_next_hop(140, exclude=set())
        assert done and ident == 150

    def test_forwards_to_closest_preceding_link(self):
        peer = make_peer(0)
        peer.predecessor = 200
        peer.successors = [30]
        peer.neighbor_table = {(1, 1): 90, (2, 1): 160}
        done, ident = peer.local_next_hop(170, exclude=set())
        assert not done
        assert ident == 160  # closest link preceding the key

    def test_exclusion_skips_failed_hop(self):
        peer = make_peer(0)
        peer.predecessor = 200
        peer.successors = [30]
        peer.neighbor_table = {(1, 1): 90, (2, 1): 160}
        done, ident = peer.local_next_hop(170, exclude={160})
        assert not done
        assert ident == 90

    def test_all_links_excluded_falls_back(self):
        peer = make_peer(0)
        peer.predecessor = 200
        peer.successors = [30]
        done, ident = peer.local_next_hop(170, exclude={30, 200})
        assert done  # degraded answer rather than an infinite loop


class TestRoutingLinks:
    def test_links_deduplicated_and_self_free(self):
        peer = make_peer(10)
        peer.predecessor = 5
        peer.successors = [20, 30, 10]
        peer.neighbor_table = {(0, 1): 20, (1, 1): 77}
        links = peer.routing_links()
        assert links == {5, 20, 30, 77}

    def test_purge_link_clears_everything(self):
        peer = make_peer(10)
        peer.predecessor = 77
        peer.successors = [20, 77, 30]
        peer.neighbor_table = {(0, 1): 77, (1, 1): 90}
        peer._purge_link(77)
        assert peer.predecessor is None
        assert peer.successors == [20, 30]
        assert peer.neighbor_table == {(1, 1): 90}


class TestSlotSpecs:
    def test_cam_chord_slots_match_overlay_arithmetic(self):
        peer = make_peer(3, capacity=3)
        slots = dict(((lvl, seq), ident) for (lvl, seq), ident in peer.slot_specs())
        # x + j*3^i within one turn of the 256-ring
        assert slots[(0, 1)] == 4
        assert slots[(0, 2)] == 5
        assert slots[(1, 1)] == 6
        assert slots[(4, 2)] == (3 + 2 * 81) % 256
        assert all(0 <= v < 256 for v in slots.values())

    def test_cam_koorde_slots_are_group_identifiers(self):
        peer = make_peer(36, capacity=10, peer_class=CamKoordePeer)
        idents = [ident for _, ident in peer.slot_specs()]
        assert len(idents) == 8  # capacity - 2 (pred/succ are implicit)

    def test_cam_koorde_rejects_small_capacity(self):
        with pytest.raises(ValueError, match="capacity >= 4"):
            make_peer(36, capacity=3, peer_class=CamKoordePeer)

    def test_uniform_capacity_is_live_chord(self):
        """A CamChordPeer with capacity 2 keeps exactly the classic
        Chord finger identifiers — the live baseline needs no separate
        class."""
        peer = make_peer(0, capacity=2)
        idents = sorted(ident for _, ident in peer.slot_specs())
        assert idents == [2**i for i in range(8)]


class TestJoinGuards:
    def test_join_while_alive_resolves_true_without_side_effects(self):
        peer = make_peer(10)
        peer.create()
        outcome = peer.join(99)
        assert outcome.done and outcome.value is True

    def test_double_join_in_flight_rejected(self):
        sim = Simulator()
        network = Network(sim)
        a = CamChordPeer(10, 5, network, SPACE)
        bootstrap = CamChordPeer(200, 5, network, SPACE)
        bootstrap.create()
        first = a.join(200)
        second = a.join(200)  # while the first is still in flight
        assert second.done and second.value is False
        sim.run(until=30)
        assert first.done and first.value is True
        assert a.alive

    def test_crash_idempotent(self):
        peer = make_peer(10)
        peer.create()
        peer.crash()
        peer.crash()  # no error
        assert not peer.alive

    def test_leave_before_join_is_noop(self):
        peer = make_peer(10)
        peer.leave()  # not alive: nothing to do
        assert not peer.alive


class TestFloodLinks:
    def test_cam_koorde_flood_links_exclude_self(self):
        peer = make_peer(36, capacity=6, peer_class=CamKoordePeer)
        peer.predecessor = 30
        peer.successors = [40]
        peer.neighbor_table = {("debruijn", 0): 18, ("debruijn", 1): 36}
        links = peer.flood_links()
        assert links == {30, 40, 18}
