"""Drive a whole live overlay: bootstrap, churn operations, inspection.

A :class:`Cluster` owns the simulator, network, delivery monitor and
all peers of one live overlay session.  It is the test bench for the
"resilient" half of the paper: build the ring, let the maintenance
protocol converge, then join/leave/crash peers while multicasting and
measure what arrives.

A cluster is built from a *system* — anything the
:mod:`repro.systems` registry resolves: a descriptor, a
:class:`~repro.systems.SystemKind`, or a canonical name like
``"cam-chord"`` — plus either a plain capacity list or a frozen
:class:`~repro.systems.MemberSpec`.  The descriptor is the only way to
name a live system: it supplies the live peer class and the capacity
policy (the system's floor, and the uniform baselines pin every peer's
capacity to the configured fanout).  A test that needs a mutant peer
overrides a descriptor's ``peer_loader`` with
:func:`dataclasses.replace`; a raw peer class is a ``TypeError``.
"""

from __future__ import annotations

from bisect import bisect_left
from random import Random
from typing import Sequence, Union

from repro.idspace.ring import IdentifierSpace
from repro.overlay.base import Node, RingSnapshot, sample_identifiers
from repro.protocol.base_peer import BasePeer, DeliveryMonitor
from repro.protocol.config import ProtocolConfig
from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.network import Network
from repro.systems import (
    DEFAULT_UNIFORM_FANOUT,
    MemberSpec,
    SystemDescriptor,
    SystemKind,
    resolve,
)
from repro.trace.tracer import TRACER

#: Seconds between two initial peers' joins in :meth:`Cluster.bootstrap`.
JOIN_STAGGER = 0.05

#: Stabilize intervals :meth:`Cluster.bootstrap` grants the ring to turn
#: consistent before it gives up.
MAX_CONVERGE_ROUNDS = 2000

SystemLike = Union[SystemDescriptor, SystemKind, str]


class Cluster:
    """One live overlay session under simulation."""

    def __init__(
        self,
        system: SystemLike,
        members: "MemberSpec | Sequence[int]",
        bandwidths: Sequence[float] | None = None,
        space_bits: int = 19,
        config: ProtocolConfig | None = None,
        latency: LatencyModel | None = None,
        loss_rate: float = 0.0,
        seed: int = 0,
        uniform_fanout: int = DEFAULT_UNIFORM_FANOUT,
    ) -> None:
        self.system = resolve(system)
        self._peer_class = self.system.live_peer_class()
        self._uniform_fanout = uniform_fanout
        if isinstance(members, MemberSpec):
            space_bits = members.space_bits
        self.space = IdentifierSpace(space_bits)
        self.simulator = Simulator()
        self.network = Network(
            self.simulator,
            latency=latency if latency is not None else ConstantLatency(0.02),
            loss_rate=loss_rate,
            seed=seed,
        )
        self.monitor = DeliveryMonitor()
        self.config = config if config is not None else ProtocolConfig()
        self._rng = Random(seed)
        self.peers: dict[int, BasePeer] = {}

        if isinstance(members, MemberSpec):
            placements = list(
                zip(members.identifiers, members.capacities, members.bandwidths)
            )
        else:
            capacities = list(members)
            idents = sample_identifiers(
                len(capacities), self.space.size, self._rng
            )
            placements = [
                (
                    ident,
                    capacities[index],
                    bandwidths[index] if bandwidths is not None else 0.0,
                )
                for index, ident in enumerate(idents)
            ]
        self._initial: list[BasePeer] = [
            self._make_peer(ident, capacity, bandwidth)
            for ident, capacity, bandwidth in placements
        ]

    def _effective_capacity(self, capacity: int) -> int:
        """Apply the system's capacity policy to one member.

        Capacities are clamped to the system's floor, then the fanout
        policy decides what a live peer runs with — a uniform baseline
        pins it to the configured fanout (a ``CamChordPeer`` fleet with
        every capacity pinned to ``k`` *is* live base-``k`` Chord).
        """
        return self.system.live_capacity(
            max(capacity, self.system.min_capacity), self._uniform_fanout
        )

    def _make_peer(self, ident: int, capacity: int, bandwidth: float) -> BasePeer:
        peer = self._peer_class(
            ident,
            self._effective_capacity(capacity),
            self.network,
            self.space,
            config=self.config,
            bandwidth_kbps=bandwidth,
            monitor=self.monitor,
        )
        self.peers[ident] = peer
        return peer

    # -- lifecycle ---------------------------------------------------------

    def bootstrap(self) -> None:
        """Join every initial peer and let the maintenance settle.

        Peers join one by one (each via a random already-joined peer),
        :data:`JOIN_STAGGER` apart.  A mass join telescopes successor
        pointers, and Chord stabilization then shortens each pointer by
        one live member per round — so the cluster first runs until the
        ring invariant holds (at most :data:`MAX_CONVERGE_ROUNDS`
        stabilize intervals), then for enough fix-neighbor rounds to
        fill the largest table.
        """
        first, rest = self._initial[0], self._initial[1:]
        first.create()
        joined = [first]

        when = 0.0
        for peer in rest:
            when += JOIN_STAGGER
            bootstrap_peer = self._rng.choice(joined)
            self.simulator.call_at(when, peer.join, bootstrap_peer.ident)
            joined.append(peer)
        self.simulator.run(until=when + JOIN_STAGGER)

        # A join lookup can fail while the ring is still telescoped;
        # real clients retry, so the bootstrap does too.
        for _ in range(50):
            stragglers = [p for p in self._initial if not p.alive]
            if not stragglers:
                break
            live = self.live_peers()
            for peer in stragglers:
                peer.join(self._rng.choice(live).ident)
            self.run(2 * self.config.stabilize_interval)
        else:
            dead = [p.ident for p in self._initial if not p.alive]
            raise RuntimeError(f"{len(dead)} peers failed to join: {dead[:5]}")

        for _ in range(MAX_CONVERGE_ROUNDS):
            if self.ring_consistent():
                break
            self.run(self.config.stabilize_interval)
        else:
            raise RuntimeError(
                f"ring failed to converge within {MAX_CONVERGE_ROUNDS} rounds"
            )

        slots = max(len(list(p.slot_specs())) for p in self._initial)
        self.run((slots + 2) * self.config.fix_neighbors_interval)

    def run(self, duration: float) -> None:
        """Advance simulated time."""
        self.simulator.run(until=self.simulator.now + duration)

    # -- churn operations ------------------------------------------------------

    def add_peer(self, capacity: int, bandwidth: float = 0.0) -> BasePeer:
        """Join a brand-new member through a random live peer."""
        live = self.live_peers()
        if not live:
            raise RuntimeError("cannot join: no live peers to bootstrap from")
        # crashed peers keep their identifiers, so the space can run out
        if len(self.peers) >= self.space.size:
            raise RuntimeError("identifier space exhausted")
        while True:
            ident = self._rng.randrange(self.space.size)
            if ident not in self.peers:
                break
        peer = self._make_peer(ident, capacity, bandwidth)
        # Hand the joiner a bootstrap *list* (evenly spaced live
        # members), not just the one join target: if its successor dies
        # before the first stabilize, the cached contacts are its only
        # way back into a ring that does not know it exists yet.
        seeds = live[:: max(1, len(live) // 4)][:4]
        peer.remember_contacts(p.ident for p in seeds)
        peer.join(self._rng.choice(live).ident)
        return peer

    def remove_peer(self, ident: int, crash: bool = True) -> None:
        """Depart a member (abruptly by default)."""
        peer = self.peers[ident]
        if crash:
            peer.crash()
        else:
            peer.leave()

    # -- fault injection --------------------------------------------------

    def partition(self, a: int, b: int) -> None:
        """Sever all traffic between two members (both directions)."""
        self.network.partition(a, b)

    def heal_all_partitions(self) -> None:
        """Undo every active partition (the campaign quiesce step)."""
        self.network.heal_all()

    def set_loss_rate(self, loss_rate: float) -> None:
        """Change the global iid datagram loss probability."""
        self.network.set_loss_rate(loss_rate)

    def set_kind_loss(self, kind: str, loss_rate: float) -> None:
        """Per-message-kind loss (e.g. starve ``get_info`` to brew a
        timeout storm, or eat ``mc_region`` handoffs selectively)."""
        self.network.set_kind_loss(kind, loss_rate)

    def clear_fault_injection(self) -> None:
        """Heal partitions and zero every loss rate — the network is
        pristine again (peer state is whatever the faults left)."""
        self.network.heal_all()
        self.network.set_loss_rate(0.0)
        self.network.clear_kind_loss()

    def random_live_peer(self, rng: Random | None = None) -> BasePeer:
        """A uniformly random live member."""
        live = self.live_peers()
        if not live:
            raise RuntimeError("no live peers")
        chooser = rng if rng is not None else self._rng
        return chooser.choice(live)

    # -- inspection -------------------------------------------------------------

    def live_peers(self) -> list[BasePeer]:
        """All currently alive peers, in identifier order."""
        return sorted(
            (p for p in self.peers.values() if p.alive), key=lambda p: p.ident
        )

    def live_members(self) -> set[int]:
        """Identifiers of the live membership."""
        return {p.ident for p in self.peers.values() if p.alive}

    def ring_consistent(self) -> bool:
        """True when every live peer's successor is the true next live
        member — the Chord correctness invariant."""
        live = self.live_peers()
        if len(live) <= 1:
            return True
        for index, peer in enumerate(live):
            expected = live[(index + 1) % len(live)].ident
            if peer.successor != expected:
                return False
        return True

    def neighbor_table_accuracy(self) -> float:
        """Fraction of neighbor-table entries matching true resolution."""
        live = self.live_peers()
        idents = [peer.ident for peer in live]
        mask = self.space.size - 1
        total = 0
        correct = 0
        for peer in live:
            for key, identifier in peer.slot_specs():
                believed = peer.neighbor_table.get(key)
                if key == (0, 1):
                    believed = peer.successor
                total += 1
                # the first live member at or clockwise after the slot,
                # as ``RingSnapshot.resolve`` answers it
                position = bisect_left(idents, identifier & mask)
                truth = idents[position] if position < len(idents) else idents[0]
                if believed is None:
                    # A peer keeps no entry for a slot it is itself
                    # responsible for — that is the correct answer.
                    if truth == peer.ident:
                        correct += 1
                    continue
                if believed == truth or truth == peer.ident:
                    correct += 1
        return correct / total if total else 1.0

    def live_snapshot(self) -> RingSnapshot:
        """A structural snapshot of the live membership (ground truth)."""
        nodes = [
            Node(
                ident=p.ident,
                capacity=p.capacity,
                bandwidth_kbps=p.bandwidth_kbps,
            )
            for p in self.live_peers()
        ]
        return RingSnapshot(self.space, nodes)

    # -- multicast --------------------------------------------------------------

    def multicast_from(self, ident: int) -> int:
        """Originate a multicast at a live peer; returns the message id."""
        peer = self.peers[ident]
        if not peer.alive:
            raise RuntimeError(f"peer {ident} is not alive")
        message_id = peer.next_message_id()
        members = self.live_members()
        self.monitor.message_sent(message_id, ident, members)
        if TRACER.mc and "origin" in TRACER.mc:
            # The origin event freezes the send-time membership (with
            # capacities) so the causal reconstructor can rebuild the
            # implicit tree and name every lost member's last hop.
            TRACER.emit(
                self.simulator.now, "mc", "origin",
                mid=message_id, source=ident,
                system=self.system.name,
                bits=self.space.bits,
                members=sorted(members),
                capacities=[
                    [member, self.peers[member].capacity]
                    for member in sorted(members)
                ],
            )
        peer.multicast(message_id)  # type: ignore[attr-defined]
        return message_id

    def delivery_ratio(self, message_id: int) -> float:
        """Delivery ratio of one multicast against the members that were
        alive at send time and are still alive now."""
        return self.monitor.delivery_ratio(message_id, self.live_members())
