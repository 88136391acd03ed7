"""The maintenance path's bookkeeping answers exactly as the code it replaced.

The rewrites on the path every maintenance datagram or convergence
round takes, each checked against the old code kept here as the
oracle:

* ``BasePeer.local_next_hop`` walks the neighbour table, the successors
  and the predecessor directly instead of building a deduplicated
  ``routing_links()`` set per routing decision;
* the islanded-recovery contact cache is an insertion-ordered dict
  instead of a list (``in`` + ``remove`` + ``append`` + ``pop(0)``);
* ``Cluster.neighbor_table_accuracy`` resolves slots by bisecting the
  sorted live identifiers instead of building a ``RingSnapshot``;
* a stabilize round merges the successor's list in one
  ``dict.fromkeys`` pass instead of a membership test per element;
* ``BasePeer.handle_message`` looks the handler up in a per-class
  ``_on_<kind>`` table instead of an f-string + ``getattr`` per datagram.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.idspace.ring import IdentifierSpace
from repro.protocol.base_peer import BasePeer
from repro.protocol.cam_chord_peer import CamChordPeer
from repro.protocol.cluster import Cluster
from repro.protocol.config import ProtocolConfig
from repro.sim.engine import Simulator
from repro.sim.network import Message, Network
from repro.systems import system_names

BITS = 6  # a 64-ring: identifiers collide and segments wrap past 0
SPACE = IdentifierSpace(BITS)
idents = st.integers(0, SPACE.size - 1)


def make_peer(ident: int) -> CamChordPeer:
    return CamChordPeer(ident, 4, Network(Simulator()), SPACE, config=ProtocolConfig())


def old_local_next_hop(peer, key: int, exclude: set[int]) -> tuple[bool, int]:
    """``local_next_hop`` as it was: the closest preceding link chosen
    from the deduplicated ``routing_links()`` set."""
    ident = peer.ident
    succ = peer.successor
    if succ == ident:
        return True, ident
    mask = SPACE.size - 1
    key_offset = (key - ident) & mask
    pred = peer.predecessor
    if pred is not None and 0 < (key - pred) & mask <= (ident - pred) & mask:
        return True, ident
    if succ not in exclude and 0 < key_offset <= (succ - ident) & mask:
        return True, succ
    best = None
    best_offset = -1
    for link in peer.routing_links():
        if link in exclude:
            continue
        offset = (link - ident) & mask
        if best_offset < offset < key_offset:
            best = link
            best_offset = offset
    if best is None:
        return True, succ if succ not in exclude else ident
    return False, best


@settings(max_examples=300, deadline=None)
@given(
    ident=idents,
    predecessor=st.none() | idents,
    successors=st.lists(idents, min_size=1, max_size=5),
    table=st.dictionaries(st.integers(0, 12), idents, max_size=10),
    exclude=st.sets(idents, max_size=8),
    key=idents,
)
def test_local_next_hop_matches_the_set_based_walk(
    ident, predecessor, successors, table, exclude, key
):
    peer = make_peer(ident)
    peer.predecessor = predecessor
    peer.successors = successors
    peer.neighbor_table = dict(table)
    assert peer.local_next_hop(key, exclude) == old_local_next_hop(peer, key, exclude)


class ListCache:
    """The contact cache as it was: a list, most recent last."""

    def __init__(self, owner: int, size: int) -> None:
        self.owner = owner
        self.size = size
        self.items: list[int] = []

    def remember(self, ident: int) -> None:
        if ident == self.owner:
            return
        if ident in self.items:
            self.items.remove(ident)
        self.items.append(ident)
        if len(self.items) > self.size:
            self.items.pop(0)

    def purge(self, ident: int) -> None:
        if ident in self.items:
            self.items.remove(ident)


contact_ops = st.lists(
    st.tuples(st.just("remember"), st.lists(st.integers(0, 40), max_size=8))
    | st.tuples(st.just("purge"), st.integers(0, 40)),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(owner=st.integers(0, 40), ops=contact_ops)
def test_contact_cache_keeps_the_list_order(owner, ops):
    peer = make_peer(owner)
    oracle = ListCache(owner, peer.CONTACT_CACHE_SIZE)
    for op, arg in ops:
        if op == "remember":
            peer.remember_contacts(arg)
            for ident in arg:
                oracle.remember(ident)
        else:
            peer._purge_link(arg)
            oracle.purge(arg)
        assert list(peer._contact_cache) == oracle.items
    # islanded with no links at all: the last contact is the way back
    peer.successors, peer.predecessor, peer.neighbor_table = [], None, {}
    for _ in peer._stabilize_once():
        raise AssertionError("an islanded peer with no links sends nothing")
    assert peer.successors == [oracle.items[-1] if oracle.items else owner]


def old_neighbor_table_accuracy(cluster: Cluster) -> float:
    """``neighbor_table_accuracy`` as it was: resolution through a
    ``RingSnapshot`` of the live membership."""
    snapshot = cluster.live_snapshot()
    total = correct = 0
    for peer in cluster.live_peers():
        for key, identifier in peer.slot_specs():
            believed = peer.neighbor_table.get(key)
            if key == (0, 1):
                believed = peer.successor
            total += 1
            truth = snapshot.resolve(identifier).ident
            if believed is None:
                if truth == peer.ident:
                    correct += 1
                continue
            if believed == truth or truth == peer.ident:
                correct += 1
    return correct / total if total else 1.0


@pytest.mark.parametrize("size", [1, 2, 20])
@pytest.mark.parametrize("system", system_names())
def test_neighbor_table_accuracy_matches_the_snapshot(system, size):
    rng = Random(size)
    capacities = [rng.randint(4, 8) for _ in range(size)]
    cluster = Cluster(system, capacities, space_bits=10, seed=5)
    cluster.bootstrap()
    assert cluster.neighbor_table_accuracy() == old_neighbor_table_accuracy(cluster)
    if size > 2:
        # stale tables: crash a few members and look before repair
        for victim in sorted(cluster.live_members())[::6]:
            cluster.remove_peer(victim)
        cluster.run(1.0)
        accuracy = cluster.neighbor_table_accuracy()
        assert accuracy < 1.0
        assert accuracy == old_neighbor_table_accuracy(cluster)


def old_merge(succ: int, handed: list[int], own: int, size: int) -> list[int]:
    """The successor merge as it was: a list and an ``in`` test per
    handed identifier."""
    merged = [succ]
    for ident in handed:
        if ident != own and ident not in merged:
            merged.append(ident)
    return merged[:size]


@settings(max_examples=300, deadline=None)
@given(
    own=st.integers(0, 12),
    succ=st.integers(0, 12),
    handed=st.lists(st.integers(0, 12), max_size=12),
    size=st.integers(1, 8),
)
def test_successor_merge_matches_the_list_loop(own, succ, handed, size):
    # tiny identifiers: the handed list repeats, names this peer and
    # names ``succ`` often
    if succ == own:
        return  # a peer never stabilizes against itself
    config = ProtocolConfig(successor_list_size=size)
    peer = CamChordPeer(own, 4, Network(Simulator()), SPACE, config=config)
    peer.successors = [succ]
    rounds = peer._stabilize_once()
    next(rounds)  # the get_info request to ``succ``
    with pytest.raises(StopIteration):
        rounds.send({"predecessor": None, "successors": handed})
    assert peer.successors == old_merge(succ, handed, own, size)


def deliver(peer: BasePeer, kind: str, payload=None) -> None:
    peer.handle_message(Message(99, peer.ident, kind, payload))


class TestDispatchTable:
    def test_an_override_gets_its_own_handler(self):
        seen = []

        class Pinged(CamChordPeer):
            def _on_ping(self, message):
                seen.append(("override", message.sender))

        deliver(Pinged(5, 4, Network(Simulator()), SPACE), "ping")
        deliver(make_peer(5), "notify", {"ident": 9})  # the base class is untouched
        assert seen == [("override", 99)]
        assert CamChordPeer._handlers["ping"] is BasePeer._on_ping

    def test_a_new_kind_dispatches(self):
        class Custom(CamChordPeer):
            def _on_custom(self, message):
                self.got = message.payload

        peer = Custom(5, 4, Network(Simulator()), SPACE)
        deliver(peer, "custom", 7)
        assert peer.got == 7
        deliver(peer, "notify", {"ident": 9})  # inherited handlers stay
        assert peer.predecessor == 9

    def test_a_class_defined_after_the_first_dispatch(self):
        deliver(make_peer(5), "notify", {"ident": 9})

        class Late(CamChordPeer):
            def _on_late(self, message):
                self.got = message.kind

        peer = Late(5, 4, Network(Simulator()), SPACE)
        deliver(peer, "late")
        assert peer.got == "late"
        assert "late" not in CamChordPeer._handlers

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="^peer 5 got unknown message bogus$"):
            deliver(make_peer(5), "bogus")
