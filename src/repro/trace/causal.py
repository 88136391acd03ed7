"""Causal reconstruction: from trace events back to dissemination trees.

An aggregate like ``ResilienceReport.mean_delivery_ratio`` says *how
much* was lost; this module says *where*.  From one run's trace events
it rebuilds, per multicast:

* the **actual dissemination tree** — ``mc.deliver`` events carry the
  edge (``parent`` → ``ident``) that delivered each member;
* the **send record** — every ``mc_region`` / ``mc_flood`` datagram
  with its fate (delivered, dropped and why, or still in flight),
  matched from the ``net.*`` events;
* the **implicit tree** the structural algorithm would have built over
  the membership alive at send time (CAM-Chord only — flooding has no
  single implicit tree), for diffing expected vs actual edges;
* and, for every undelivered member, the **lost hop**: the exact
  (sender, receiver, event) where propagation toward that member
  stopped — a dropped datagram, or the region holder that had no link
  to forward with.

Members that crashed or left after origination are excluded from the
loss accounting, mirroring
:meth:`~repro.protocol.base_peer.DeliveryMonitor.delivery_ratio`
(a node that departs mid-dissemination is not a multicast failure).

The events read here — ``mc.*``, the ``net`` datagram events of
:data:`~repro.trace.schema.MULTICAST_KINDS` messages, ``proto.crash``
and ``proto.leave`` — are declared once, as
:data:`repro.trace.schema.READ_SET`, the contract between this module
and every capture that records only what it reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.trace.schema import READ_SET
from repro.trace.tracer import TraceEvent

# the fault campaign records nothing but the read set: a new read
# belongs in ``schema.READ_SET`` first
_MULTICAST_KINDS = READ_SET["net"]
_DEPARTURES = READ_SET["proto"]


@dataclass(frozen=True)
class Hop:
    """One named propagation stop: the answer to "where did it die?".

    ``event`` is a short verdict string: ``"mc_region dropped:dead"``,
    ``"mc_flood dropped:loss"``, ``"stalled:no-link"`` (the holder of
    the covering region was delivered but never forwarded toward the
    member — a stale or missing neighbor-table entry), or
    ``"stalled:no-attempt"`` (no datagram ever moved toward the
    member).
    """

    sender: int
    receiver: int
    event: str
    time: float = 0.0

    def describe(self, member: int) -> str:
        """The citation line oracle violations and failover recoveries
        print for one member's lost hop — defined once, here, so the
        delivery and delivery-gap oracles cite hops identically."""
        return (
            f"member {member}: {self.sender} -> {self.receiver} "
            f"({self.event}) at t={self.time:.3f}"
        )


@dataclass(frozen=True)
class SendAttempt:
    """One multicast datagram and what became of it."""

    seq: int
    time: float
    sender: int
    recipient: int
    kind: str
    mid: int
    limit: int | None
    depth: int | None
    fate: str  # "delivered" | "dropped:<reason>" | "in-flight"


@dataclass
class MulticastRecord:
    """Everything the trace says about one multicast."""

    mid: int
    source: int
    system: str
    bits: int
    origin_time: float
    members: frozenset[int]
    capacities: dict[int, int]
    deliveries: dict[int, tuple[int | None, int, float]] = field(default_factory=dict)
    duplicates: list[tuple[int, int, float]] = field(default_factory=list)
    sends: list[SendAttempt] = field(default_factory=list)
    departed: frozenset[int] = frozenset()
    #: the service-plane group the send belongs to (None outside the plane)
    group: str | None = None
    #: the group's sequence number for this send (None outside the plane)
    group_seq: int | None = None

    @property
    def delivered_members(self) -> set[int]:
        """Members that recorded a first delivery (source included)."""
        return set(self.deliveries)

    @property
    def eligible_members(self) -> set[int]:
        """Members alive at send time that did not depart afterwards."""
        return set(self.members) - set(self.departed)

    @property
    def undelivered(self) -> set[int]:
        """Eligible members the multicast never reached."""
        return self.eligible_members - self.delivered_members - {self.source}

    def delivery_ratio(self) -> float:
        """Same definition as the live DeliveryMonitor's ratio."""
        eligible = self.eligible_members
        if not eligible:
            return 1.0
        got = sum(1 for ident in eligible if ident in self.deliveries)
        return got / len(eligible)

    def actual_edges(self) -> set[tuple[int, int]]:
        """The dissemination tree that actually happened."""
        return {
            (parent, ident)
            for ident, (parent, _, _) in self.deliveries.items()
            if parent is not None
        }

    def implicit_edges(self) -> set[tuple[int, int]] | None:
        """The tree the structural CAM-Chord algorithm would build over
        the send-time membership, or ``None`` for flood systems (a
        flood has no single implicit tree to diff against)."""
        from repro.systems import get_system

        if not get_system(self.system).builds_single_tree:
            return None
        from repro.idspace.ring import IdentifierSpace
        from repro.multicast.cam_chord import cam_chord_multicast
        from repro.overlay.base import Node, RingSnapshot
        from repro.overlay.cam_chord import CamChordOverlay

        nodes = [
            Node(ident=ident, capacity=self.capacities.get(ident, 2))
            for ident in sorted(self.members)
        ]
        snapshot = RingSnapshot(IdentifierSpace(self.bits), nodes)
        overlay = CamChordOverlay(snapshot)
        result = cam_chord_multicast(overlay, snapshot.node_at(self.source))
        return {
            (parent, child)
            for child, parent in result.parent.items()
            if parent is not None
        }

    def tree_diff(self) -> tuple[set[tuple[int, int]], set[tuple[int, int]]]:
        """(missing, extra) edges of the actual tree vs the implicit one.

        *Missing* edges are where deliveries were lost or rerouted;
        *extra* edges are the reroutes (stale tables under churn hand
        regions to different nodes than the converged snapshot would).
        Returns ``(set(), actual)`` shaped diff only for tree systems;
        for floods both sets are empty.
        """
        expected = self.implicit_edges()
        if expected is None:
            return set(), set()
        actual = self.actual_edges()
        return expected - actual, actual - expected


def multicast_ids(events: Iterable[TraceEvent]) -> tuple[int, ...]:
    """Every multicast originated in the trace, in send order."""
    return tuple(
        event.data["mid"]
        for event in events
        if event.layer == "mc" and event.kind == "origin"
    )


def _send_fates(
    events: Sequence[TraceEvent], mid: int
) -> list[SendAttempt]:
    """Match every multicast datagram with its delivery/drop event.

    ``net.send`` is emitted only for datagrams that actually left (loss
    and partition drop at send time and emit ``net.drop`` instead);
    ``net.deliver`` / ``net.drop(reason=dead|late)`` settle them later.
    Matching is FIFO per (src, dst, kind) — the network delivers equal-
    latency datagrams in send order, and a mismatch only ever swaps
    identical attempts.
    """
    attempts: list[SendAttempt] = []
    open_by_key: dict[tuple[int, int, str], list[int]] = {}
    fates: dict[int, str] = {}
    for event in events:
        if event.layer != "net":
            continue
        data = event.data
        if data.get("mid") != mid or data.get("kind") not in _MULTICAST_KINDS:
            continue
        key = (data["src"], data["dst"], data["kind"])
        if event.kind == "send":
            index = len(attempts)
            attempts.append(
                SendAttempt(
                    seq=event.seq,
                    time=event.time,
                    sender=data["src"],
                    recipient=data["dst"],
                    kind=data["kind"],
                    mid=mid,
                    limit=data.get("limit"),
                    depth=data.get("depth"),
                    fate="in-flight",
                )
            )
            open_by_key.setdefault(key, []).append(index)
        elif event.kind == "drop":
            reason = data["reason"]
            if reason == "dead" or reason == "late":
                # settled at delivery time: resolve the oldest open send
                pending = open_by_key.get(key)
                if pending:
                    fates[pending.pop(0)] = f"dropped:{reason}"
                    continue
            # loss/partition drop at send time: no matching net.send
            attempts.append(
                SendAttempt(
                    seq=event.seq,
                    time=event.time,
                    sender=data["src"],
                    recipient=data["dst"],
                    kind=data["kind"],
                    mid=mid,
                    limit=data.get("limit"),
                    depth=data.get("depth"),
                    fate=f"dropped:{reason}",
                )
            )
        elif event.kind == "deliver":
            pending = open_by_key.get(key)
            if pending:
                fates[pending.pop(0)] = "delivered"
    return [
        attempt
        if index not in fates
        else SendAttempt(
            attempt.seq,
            attempt.time,
            attempt.sender,
            attempt.recipient,
            attempt.kind,
            attempt.mid,
            attempt.limit,
            attempt.depth,
            fates[index],
        )
        for index, attempt in enumerate(attempts)
    ]


def reconstruct(events: Sequence[TraceEvent], mid: int) -> MulticastRecord:
    """Rebuild one multicast's full causal record from a trace."""
    origin: TraceEvent | None = None
    for event in events:
        if event.layer == "mc" and event.kind == "origin" and event.data["mid"] == mid:
            origin = event
            break
    if origin is None:
        raise KeyError(f"no mc.origin event for message {mid} in trace")
    data = origin.data
    record = MulticastRecord(
        mid=mid,
        source=data["source"],
        system=data["system"],
        bits=data["bits"],
        origin_time=origin.time,
        members=frozenset(data["members"]),
        capacities={ident: capacity for ident, capacity in data["capacities"]},
        group=data.get("group"),
        group_seq=data.get("seq"),
    )
    departed: set[int] = set()
    for event in events:
        if event.layer == "mc" and event.data.get("mid") == mid:
            if event.kind == "deliver":
                ident = event.data["ident"]
                if ident not in record.deliveries:
                    record.deliveries[ident] = (
                        event.data["parent"],
                        event.data["depth"],
                        event.time,
                    )
            elif event.kind == "dup":
                record.duplicates.append(
                    (event.data["ident"], event.data["sender"], event.time)
                )
        elif (
            event.layer == "proto"
            and event.kind in _DEPARTURES
            and event.time >= origin.time
            and event.data["ident"] in record.members
        ):
            departed.add(event.data["ident"])
    record.departed = frozenset(departed)
    record.sends = _send_fates(events, mid)
    return record


def lost_hops(record: MulticastRecord) -> dict[int, Hop]:
    """For every undelivered member, the hop where propagation stopped.

    Preference order per member: the deepest datagram that moved toward
    it — a direct send to the member, or (CAM-Chord) a region handoff
    whose ``(recipient, limit]`` span covers it.  A failed datagram
    names the hop directly; a delivered covering handoff means the
    holder stalled (no usable link toward the member); no attempt at
    all blames the source.
    """
    from repro.idspace.ring import segment_contains

    size = 1 << record.bits
    hops: dict[int, Hop] = {}
    for member in sorted(record.undelivered):
        candidates: list[tuple[tuple[int, int, int], SendAttempt]] = []
        for attempt in record.sends:
            if attempt.recipient == member:
                direct = 1
            elif (
                attempt.kind == "mc_region"
                and attempt.limit is not None
                and segment_contains(member, attempt.recipient, attempt.limit, size)
            ):
                direct = 0
            else:
                continue
            depth = attempt.depth if attempt.depth is not None else 0
            # deepest attempt wins; a direct send beats a covering
            # handoff at the same depth; latest attempt breaks ties
            candidates.append(((depth, direct, attempt.seq), attempt))
        best = max(candidates)[1] if candidates else None
        if best is None:
            hops[member] = Hop(
                record.source, member, "stalled:no-attempt", record.origin_time
            )
        elif best.fate == "delivered" and best.recipient != member:
            hops[member] = Hop(best.recipient, member, "stalled:no-link", best.time)
        elif best.fate == "delivered":
            hops[member] = Hop(best.sender, member, "delivered-but-not-recorded", best.time)
        else:
            hops[member] = Hop(
                best.sender, best.recipient, f"{best.kind} {best.fate}", best.time
            )
    return hops


def lost_multicasts(events: Sequence[TraceEvent]) -> tuple[MulticastRecord, ...]:
    """The records of the multicasts whose delivery ratio fell short of
    1.0, in send order (each reconstructed once)."""
    records = (reconstruct(events, mid) for mid in multicast_ids(events))
    return tuple(record for record in records if record.undelivered)
