"""Event-driven multi-group service plane.

:class:`~repro.multicast.service.MulticastService` keeps the groups,
their overlays and the per-host forwarding ledger; it moves no
message.  Traffic is concurrent: thousands of groups disseminate at
once, members join and leave mid-stream, and every host's single
physical uplink is shared by all the groups it sits in.
:class:`ServicePlane` — the one way a message moves through the
service — is that regime as a deterministic discrete-event system:

* **Interleaved sends on one clock.**  Every send freezes the group's
  membership and implicit tree at origin time, then plays the tree out
  hop by hop on a :class:`~repro.sim.engine.Simulator`: a node forwards
  the message to each child only after the full message has arrived
  (store-and-forward at message granularity — packet pipelining inside
  one tree is :mod:`repro.sim.transfer`'s business) and only when its
  host's uplink frees up.
* **Shared-uplink backpressure.**  All transmissions a host makes — in
  any group — reserve slots from one
  :class:`~repro.sim.transfer.UplinkBudget` ledger keyed by host name.
  A saturated host defers its forwarding slots; the plane counts those
  deferrals and the queue depth they imply, per group.
* **Sequencing.**  Each group stamps sends with a monotonically
  increasing sequence number, and a send owes its copy to exactly the
  membership frozen at origin — the set the trace layer's
  ``mc.origin`` events record.  So a member joining mid-stream is
  obligated from the next sequence, and a leaver for every send
  originated while it was a member.  A send's receipt holds its
  deliveries in two columns over the epoch's rows; a second copy of a
  delivery finds its row already filled (a duplicate), and the audit
  names every gap from the rows still empty.
* **Mid-stream membership.**  ``create_group`` / ``join`` / ``leave``
  are admitted *during* active dissemination: the group's snapshot and
  overlay rebuild through the registry path
  (:meth:`MulticastService.join_group`); in-flight sends keep their
  frozen trees and finish against their origin-time membership.

Everything is deterministic: ties on the event queue break by
insertion order and the plane draws no randomness, so a replayed
workload produces byte-identical reports.

**One send path: the epoch-cached schedule template.**  Between two
membership events a group's overlay is frozen, so every send from one
source walks the *same* tree with the *same* per-hop terms, and every
member keeps its *row* — its position on the ring, the index
:class:`~repro.multicast.kernel.FlatTree` speaks.  The row is the only
key on the delivery path.  Per (group, membership epoch) the plane
keeps its columns (host name, uplink bandwidth, identifier) and per
source inside it a :class:`_SendTemplate`: the tree, each forwarder's
children — a run of the tree's delivery order, so a
template costs work per forwarder, not per edge — and its forwarding
charges; every hop adds the plane's one float hop latency.  A first
send from a source is simply the send that builds its template.
Deliveries sit in a plane-level pending heap that a single *wavefront*
event commits in one loop (:meth:`ServicePlane._pump`); the loop
stops exactly where a foreign event — a membership change, a
scheduled send, a completion it scheduled itself, a bounded
``run(until)`` — interleaves.  The specification of that order is
"one engine event per delivery, ties by insertion": the walker that
implemented it literally is gone, and
its receipts, audits, ``mc.*`` traces and reports live on as the
golden digests in ``tests/golden/plane_observables.json`` (that
module's docstring says where each came from and how to regenerate).

A delivery writes its time into the receipt's ``times`` row and its
row onto ``order``, and a delivery whose row already holds a time is
a duplicate; nothing per member is kept beside the receipts.  A
forwarding node takes all its children's uplink slots in one run
reservation, which hands back only the run's start and end — the
node rebuilds each slot's end with the budget's own additions.  A
send only notes its forwarding charges (two lists: hosts and child
counts) on the service's ledger, which adds them in when it is read
or its membership changes.  The ``mc.origin``
membership and capacity lists are built at an epoch's first traced
origin, so an untraced plane never builds them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import compress
from math import inf, nextafter
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro import perf
from repro.multicast.service import MulticastService
from repro.sim.engine import Future, Simulator
from repro.sim.transfer import UplinkBudget, delivery_timeline
from repro.systems import DEFAULT_UNIFORM_FANOUT, SystemKind
from repro.trace.tracer import TRACER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from repro.multicast.kernel import FlatTree
    from repro.systems import SystemDescriptor
    from repro.workloads.groups import ServiceEvent

#: one node's children, in delivery order: a run of the tree's ``order``
_Kids = tuple[int, ...]


# -- sequencing and send bookkeeping ----------------------------------------


@dataclass(frozen=True)
class SequenceAudit:
    """What the receipts say once the plane has quiesced.

    ``gaps`` maps each member with missing sequences to the exact
    sequence numbers it never received; ``dups`` counts repeated
    deliveries.  ``unexpected`` (a delivery the member was never
    obligated for) is 0 by construction: a delivery can only land on a
    row of its send's frozen membership, which is exactly the set of
    members obligated for that sequence.  The field stays so an audit
    reads as ``(gaps, dups, unexpected)`` as it always has.  A healthy
    plane audits to ``clean``.
    """

    gaps: Mapping[str, tuple[int, ...]]
    dups: int
    unexpected: int

    @property
    def clean(self) -> bool:
        return not self.gaps and self.dups == 0 and self.unexpected == 0


#: one not-yet-delivered row of a receipt's ``times`` column
_UNDELIVERED = array("d", [-1.0])


class SendReceipt:
    """One scheduled send: its frozen context and live progress.

    ``members`` is the frozen send-time membership (host names, join
    order) — the set the completeness oracle judges.  The deliveries
    are two columns over the send's epoch rows (``hosts[row]`` names a
    row): ``times[row]`` is the row's delivery time, or -1.0 while it
    has none, and ``order`` lists the delivered rows in commit order,
    the source first.  ``completion`` resolves with the receipt once
    every frozen member has its copy.
    """

    __slots__ = (
        "group",
        "seq",
        "mid",
        "source",
        "message_kbits",
        "origin_time",
        "members",
        "hosts",
        "times",
        "order",
        "completion",
    )

    def __init__(
        self,
        group: str,
        seq: int,
        mid: int,
        source: str,
        message_kbits: float,
        origin_time: float,
        members: tuple[str, ...],
        hosts: Sequence[str],
        source_row: int,
    ) -> None:
        self.group = group
        self.seq = seq
        self.mid = mid
        self.source = source
        self.message_kbits = message_kbits
        self.origin_time = origin_time
        self.members = members
        self.hosts = hosts
        self.times = times = _UNDELIVERED * len(hosts)
        times[source_row] = origin_time
        self.order = array("l", [source_row])
        self.completion = Future()

    @property
    def delivered(self) -> dict[str, float]:
        """Host name -> delivery time, in commit order (the source
        first, at ``origin_time``): a fresh dict built from the columns
        at every read, so changing it changes nothing here."""
        hosts = self.hosts
        times = self.times
        return {hosts[row]: times[row] for row in self.order}

    @property
    def complete(self) -> bool:
        return self.completion.done

    def verify_complete(self) -> None:
        """The completeness oracle: every frozen send-time member got
        its copy (raises with the missing hosts otherwise)."""
        if min(self.times) < 0.0:
            delivered = self.delivered
            missing = [host for host in self.members if host not in delivered]
            raise AssertionError(
                f"send {self.group}#{self.seq}: {len(missing)} frozen "
                f"members never delivered, e.g. {missing[:5]}"
            )


@dataclass(slots=True, eq=False)
class _EpochSchedule:
    """Everything derivable from one (group, membership epoch).

    Valid exactly while :meth:`MulticastService.membership_epoch` still
    returns ``epoch`` — join/leave/drop bump the epoch and the plane
    discards the context (counted as schedule-cache invalidations).
    The columns are indexed by snapshot row (a member's position on the
    ring, the index :class:`FlatTree` uses): ``hosts`` beside
    ``idents`` is the epoch's one identifier <-> host mapping, and a
    receipt's delivery columns run over the same rows.  ``trace_columns``
    (the ``mc.origin`` membership and capacity lists) is built at the
    epoch's first traced origin and shared by the rest: every
    ``mc.origin`` carries the same frozen membership, so one object
    serves them all.
    """

    epoch: int
    member_names: tuple[str, ...]  # join order: what a receipt freezes
    hosts: Sequence[str]
    bandwidths: Sequence[float]
    idents: Sequence[int]
    capacities: Sequence[int]
    system_name: str
    space_bits: int
    trace_columns: tuple[list[int], list[list[int]]] | None = None
    templates: dict[str, _SendTemplate] = field(default_factory=dict)


@dataclass(slots=True, eq=False)
class _SendTemplate:
    """One source's frozen dissemination schedule within an epoch.

    ``kids[row]`` is the child rows of ``row`` in delivery order (empty
    for a leaf): every tree builder delivers a node's children one
    after another, in the order their parents were delivered (the
    :class:`FlatTree` contract), so each is a run of ``tree.order``.
    ``forwarders`` lists the forwarding hosts in delivery order — the
    order :meth:`FlatTree.children_counts` iterates in — beside their
    child counts in ``fanouts``, so :meth:`MulticastService.charge`
    accumulates the forwarding ledger in the same float order as the
    blocking reference send the service tests keep.
    """

    tree: FlatTree
    kids: list[_Kids]
    forwarders: list[str]
    fanouts: list[int]


@dataclass(slots=True, eq=False)
class _SendState:
    """Per-send progress of one template-driven dissemination.

    Holds the row columns of the epoch and the stats of the group
    *incarnation* the send was originated under: a name dropped and
    recreated mid-flight gets fresh stats, and this send's deliveries
    must keep counting in the old.
    """

    receipt: SendReceipt
    kids: list[_Kids]
    hosts: Sequence[str]
    bandwidths: Sequence[float]
    # the next three are read only when tracing
    idents: Sequence[int]
    depths: Sequence[int]
    parents: Sequence[int]
    stats: GroupStats
    remaining: int  # frozen members still to deliver to


@dataclass(slots=True)
class GroupStats:
    """Per-group counters the plane reports."""

    created_at: float
    sends: int = 0
    deliveries: int = 0
    delivered_kbits: float = 0.0
    deferrals: int = 0
    dups: int = 0
    queue_depth: int = 0  # transmissions scheduled but not yet landed
    max_queue_depth: int = 0
    first_origin: float | None = None
    last_delivery: float | None = None
    closed: bool = False

    def goodput_dps(self) -> float:
        """Sustained deliveries per simulated second over the group's
        active span (first origin to last delivery)."""
        if self.deliveries == 0 or self.first_origin is None:
            return 0.0
        span = (self.last_delivery or self.first_origin) - self.first_origin
        if span <= 0.0:
            return float(self.deliveries)
        return self.deliveries / span

    def goodput_kbps(self) -> float:
        """Sustained delivered kilobits per simulated second."""
        if self.delivered_kbits == 0.0 or self.first_origin is None:
            return 0.0
        span = (self.last_delivery or self.first_origin) - self.first_origin
        if span <= 0.0:
            return self.delivered_kbits
        return self.delivered_kbits / span


@dataclass(frozen=True)
class PlaneReport:
    """The plane's rolled-up answer: one row per group, plus totals.

    ``rows`` are JSON-safe dicts (the CI service-smoke job uploads the
    rendered table as its goodput artifact).
    """

    time: float
    rows: tuple[dict[str, Any], ...]
    total_deliveries: int
    total_deferrals: int

    def deliveries_per_sec(self) -> float:
        """Aggregate sustained deliveries per *simulated* second —
        the provisioning-facing rate (how fast the modeled system
        disseminates)."""
        if self.time <= 0.0:
            return float(self.total_deliveries)
        return self.total_deliveries / self.time

    def render(self) -> str:
        header = (
            f"{'group':16s} {'members':>7s} {'sends':>6s} {'delivs':>7s} "
            f"{'goodput/s':>10s} {'kbps':>9s} {'defer':>6s} {'maxq':>5s}"
        )
        lines = [header]
        for row in self.rows:
            lines.append(
                f"{row['group']:16s} {row['members']:7d} {row['sends']:6d} "
                f"{row['deliveries']:7d} {row['goodput_dps']:10.2f} "
                f"{row['goodput_kbps']:9.1f} {row['deferrals']:6d} "
                f"{row['max_queue_depth']:5d}"
            )
        lines.append(
            f"# t={self.time:.2f}s groups={len(self.rows)} "
            f"deliveries={self.total_deliveries} "
            f"({self.deliveries_per_sec():.1f}/s sim) "
            f"deferrals={self.total_deferrals}"
        )
        return "\n".join(lines)


@dataclass(slots=True, eq=False)
class _Group:
    """One incarnation of a group name: its counters, its receipts in
    sequence order (the last one's ``seq`` is ``issued``) and, while it
    is live, the current epoch's schedules."""

    stats: GroupStats
    issued: int = 0  # highest sequence number originated so far
    receipts: list[SendReceipt] = field(default_factory=list)
    context: _EpochSchedule | None = None


# -- the plane --------------------------------------------------------------


class ServicePlane:
    """Batched, interleaved multi-group dissemination on one clock.

    Owns its :class:`MulticastService` and its :class:`Simulator` —
    every overlay build and rebuild goes through the service's registry
    path, and every completed transmission charges the service's
    per-host forwarding ledger.
    """

    def __init__(self, space_bits: int = 19, hop_latency: float = 0.0) -> None:
        self.service = MulticastService(space_bits)
        self.simulator = Simulator()
        self.budget = UplinkBudget()
        hop_latency = float(hop_latency)
        if not 0.0 <= hop_latency < inf:
            raise ValueError(
                f"hop latency must be finite and >= 0, got {hop_latency}"
            )
        #: one-way latency of every overlay hop, in seconds
        self._hop_latency = hop_latency
        # every incarnation of every group name, in creation order; the
        # last one is the live group unless its stats say closed
        self._groups: dict[str, list[_Group]] = {}
        self._next_mid = 1
        self._receipts: list[SendReceipt] = []
        # pending deliveries: (time, plane seq, state, row) — the plane
        # seq is the insertion-order tie-break the engine would apply
        # were each delivery its own event
        self._pending: list[tuple[float, int, _SendState, int]] = []
        self._pending_seq = 0
        self._wavefront: list | None = None  # its engine event
        self._wavefront_time: float | None = None

    # -- membership lifecycle (admissible mid-stream) -------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.simulator.now

    def register_host(self, name: str, bandwidth_kbps: float) -> None:
        """Add a host to the shared population (delegates)."""
        self.service.register_host(name, bandwidth_kbps)

    def create_group(
        self,
        group_name: str,
        member_names: Iterable[str],
        kind: "SystemKind | SystemDescriptor | str" = SystemKind.CAM_CHORD,
        per_link_kbps: float = 100.0,
        uniform_fanout: int = DEFAULT_UNIFORM_FANOUT,
    ) -> None:
        """Establish a group (usable immediately, even mid-run)."""
        self.service.create_group(
            group_name, member_names, kind, per_link_kbps, uniform_fanout
        )
        # a recreated name opens a new incarnation beside the closed
        # one, whose in-flight sends keep their own receipts and stats
        self._groups.setdefault(group_name, []).append(
            _Group(GroupStats(created_at=self.now))
        )

    def _live(self, group_name: str) -> _Group:
        """The name's live incarnation (KeyError if none)."""
        incarnations = self._groups.get(group_name)
        if not incarnations or incarnations[-1].stats.closed:
            raise KeyError(f"no group named {group_name!r}")
        return incarnations[-1]

    def join(self, group_name: str, host_name: str) -> None:
        """Admit a host mid-stream: the overlay rebuilds through the
        registry path; in-flight sends keep their frozen trees.  The
        joiner is obligated from the *next* sequence number."""
        self.service.join_group(group_name, host_name)

    def leave(self, group_name: str, host_name: str) -> None:
        """Remove a host mid-stream.  The leaver stays obligated for
        every sequence originated while it was a member — including
        in-flight sends, which deliver against frozen membership."""
        self.service.leave_group(group_name, host_name)

    def drop_group(self, group_name: str) -> None:
        """Tear a group down.  In-flight sends finish (frozen trees);
        the receipts and stats stay readable for the final audit."""
        self.service.drop_group(group_name)
        group = self._live(group_name)
        group.stats.closed = True
        if group.context is not None:
            perf.COUNTERS.schedule_cache_invalidations += len(
                group.context.templates
            )
            group.context = None

    # -- sending --------------------------------------------------------

    def send(
        self, group_name: str, source_host: str, message_kbits: float = 1.0
    ) -> SendReceipt:
        """Originate one message *now*: freeze membership and tree,
        stamp the next sequence number, and schedule the hops."""
        group, context, template, cached = self._template(
            group_name, source_host, message_kbits
        )
        if cached:
            perf.COUNTERS.schedule_cache_hits += 1
            if TRACER.mc and "tree" in TRACER.mc:
                # building a template extracts (and trace-summarizes)
                # the tree; a hit replays the frozen tree's summary so
                # the traced stream does not depend on what was cached
                TRACER.emit(
                    0.0, "mc", "tree",
                    source=template.tree.source_ident,
                    edges=template.tree.messages_sent,
                )
        else:
            perf.COUNTERS.schedule_cache_misses += 1
        self.service.charge(template.forwarders, template.fanouts, message_kbits)
        group.issued = seq = group.issued + 1
        mid = self._next_mid
        self._next_mid += 1
        now = self.simulator.now
        stats = group.stats
        stats.sends += 1
        if stats.first_origin is None:
            stats.first_origin = now
        tree = template.tree
        source_row = tree.order[0]
        receipt = SendReceipt(
            group=group_name,
            seq=seq,
            mid=mid,
            source=source_host,
            message_kbits=message_kbits,
            origin_time=now,
            members=context.member_names,
            hosts=context.hosts,
            source_row=source_row,
        )
        group.receipts.append(receipt)
        self._receipts.append(receipt)
        state = _SendState(
            receipt, template.kids, context.hosts, context.bandwidths,
            context.idents, tree.depth_array, tree.parent_index, stats,
            remaining=len(context.member_names) - 1,  # not the source
        )
        source_ident = tree.source_ident
        if TRACER.mc and "origin" in TRACER.mc:
            columns = context.trace_columns
            if columns is None:
                idents = list(context.idents)
                columns = context.trace_columns = (
                    idents,
                    [list(row) for row in zip(idents, context.capacities)],
                )
            TRACER.emit(
                now, "mc", "origin",
                mid=mid, source=source_ident,
                system=context.system_name,
                bits=context.space_bits,
                members=columns[0],
                capacities=columns[1],
                group=group_name, seq=seq,
            )
        if TRACER.mc and "deliver" in TRACER.mc:
            # the origin's own copy, parent=None — same convention
            # as the protocol peers' local delivery record
            TRACER.emit(
                now, "mc", "deliver",
                mid=mid, ident=source_ident, depth=0, parent=None,
                group=group_name, seq=seq,
            )
        if state.remaining == 0:
            receipt.completion.resolve(receipt)
        else:
            self._forward(state, source_row, template.kids[source_row], now)
            self._arm_wavefront()
        return receipt

    def send_later(
        self,
        delay: float,
        group_name: str,
        source_host: str,
        message_kbits: float = 1.0,
    ) -> Future:
        """Schedule a send for ``now + delay``; membership and tree
        freeze at *fire* time, not call time.  Resolves with the
        :class:`SendReceipt` once the send is originated."""
        placed = Future()
        self.simulator.call_later(
            delay, self._send_placed, placed, group_name, source_host, message_kbits
        )
        return placed

    def _send_placed(
        self, placed: Future, group_name: str, source_host: str, message_kbits: float
    ) -> None:
        placed.resolve(self.send(group_name, source_host, message_kbits))

    # -- epoch-cached schedules -----------------------------------------

    def _template(
        self, group_name: str, source_host: str, message_kbits: float
    ) -> tuple[_Group, _EpochSchedule, _SendTemplate, bool]:
        """Validate a send request and look up what it plays from: the
        group's live incarnation, its current-epoch schedule context
        and the source's template, built on first use in the epoch.
        The flag says whether the template was already cached; only a
        send counts the lookup, so a preview leaves the counters be."""
        group = self._live(group_name)
        if not 0 < message_kbits < inf:
            raise ValueError(f"message size must be finite and > 0, got {message_kbits}")
        context = self._epoch_context(group_name, group)
        template = context.templates.get(source_host)
        if template is not None:
            return group, context, template, True
        # raises for a host outside the group, before anything is built
        source_ident = self.service.member_ident(group_name, source_host)
        template = context.templates[source_host] = self._build_template(
            context, group_name, source_ident
        )
        return group, context, template, False

    def _epoch_context(self, group_name: str, group: _Group) -> _EpochSchedule:
        """The group's schedule context for its *current* epoch,
        rebuilding (and invalidating stale templates) after any
        membership change."""
        epoch = self.service.membership_epoch(group_name)
        context = group.context
        if context is not None:
            if context.epoch == epoch:
                return context
            perf.COUNTERS.schedule_cache_invalidations += len(
                context.templates
            )
        overlay = self.service.group(group_name)
        snapshot = overlay.snapshot
        hosts = snapshot.names
        context = group.context = _EpochSchedule(
            epoch=epoch,
            member_names=tuple(self.service.members_of(group_name)),
            hosts=hosts,
            bandwidths=snapshot.bandwidths,
            idents=snapshot.identifiers,
            capacities=snapshot.capacities,
            system_name=overlay.system.name,
            space_bits=snapshot.space.bits,
        )
        return context

    def _build_template(
        self, context: _EpochSchedule, group_name: str, source_ident: int
    ) -> _SendTemplate:
        """Extract the source's tree once and freeze its schedule: per
        forwarder, not per edge — a forwarder's children are the next
        run of ``order`` after the runs of the forwarders delivered
        before it (the source's run starts right after the source)."""
        overlay = self.service.group(group_name)
        tree = overlay.multicast_from(overlay.snapshot.node_at(source_ident))
        order = tuple(tree.order)
        child_count = tree.child_count
        forwarding = list(compress(order, map(child_count.__getitem__, order)))
        fanouts = list(map(child_count.__getitem__, forwarding))
        kids: list[_Kids] = [()] * len(child_count)
        start = 1
        for row, count in zip(forwarding, fanouts):
            end = start + count
            kids[row] = order[start:end]
            start = end
        return _SendTemplate(
            tree, kids, list(map(context.hosts.__getitem__, forwarding)), fanouts
        )

    def _forward(
        self, state: _SendState, row: int, kids: _Kids, now: float
    ) -> None:
        """The node at ``row`` holds the full message at ``now``: take
        one run of uplink slots on its host's shared budget, a slot per
        child in template order, and queue the arrivals."""
        count = len(kids)
        serialize = state.receipt.message_kbits / state.bandwidths[row]
        # the run starts at ``done``; each slot ends where the budget's
        # own additions put it
        done, _, deferred = self.budget.reserve_run(
            state.hosts[row], now, serialize, count
        )
        stats = state.stats
        stats.deferrals += deferred
        depth = stats.queue_depth + count
        stats.queue_depth = depth
        if depth > stats.max_queue_depth:
            stats.max_queue_depth = depth
        pending = self._pending
        latency = self._hop_latency
        seq = self._pending_seq
        self._pending_seq = seq + count
        for child in kids:
            done += serialize
            heappush(pending, (done + latency, seq, state, child))
            seq += 1

    def _arm_wavefront(self) -> None:
        """Keep exactly one engine event — at the earliest pending
        delivery — standing in for the whole heap."""
        pending = self._pending
        if not pending:
            self._wavefront = None
            self._wavefront_time = None
            return
        head = pending[0][0]
        wavefront = self._wavefront
        if wavefront is not None and not Simulator.cancelled(wavefront):
            if self._wavefront_time is not None and self._wavefront_time <= head:
                return
            Simulator.cancel(wavefront)
        self._wavefront_time = head
        self._wavefront = self.simulator.call_at(head, self._pump)

    def _pump(self) -> None:
        """One wavefront: commit pending deliveries in (time, seq)
        order until a *foreign* engine event (membership change,
        scheduled send, completion resolution) or the active
        ``run(until)`` bound must interleave.

        Deliveries at the wavefront's own fire time always commit —
        any foreign event still queued at that instant was scheduled
        after this wavefront was armed, hence after each of those
        deliveries would have entered the queue as an event of its
        own, so the insertion-order tie-break runs the deliveries
        first.
        """
        self._wavefront = None
        self._wavefront_time = None
        pending = self._pending
        engine = self.simulator
        now = engine.now
        after_now = nextafter(now, inf)
        past_bound = nextafter(engine.run_bound, inf)
        # the earliest foreign event, read once: only a completion this
        # loop schedules can put one in front of it
        horizon = engine.next_event_time()
        if horizon is None:
            horizon = inf
        # a delivery commits iff it is due before ``cut``: not after the
        # run bound, and at ``now`` or before the horizon
        cut = min(horizon if horizon > now else after_now, past_bound)
        trace_dup = TRACER.mc and "dup" in TRACER.mc
        trace_deliver = TRACER.mc and "deliver" in TRACER.mc
        forward = self._forward
        committed = False
        while pending:
            # heap keys are unique (``seq`` is), so popping the head and
            # pushing it back when it must wait changes no commit order
            entry = heappop(pending)
            time, _, state, row = entry
            if time >= cut:
                heappush(pending, entry)
                break
            committed = True
            receipt = state.receipt
            stats = state.stats
            stats.queue_depth -= 1
            times = receipt.times
            if times[row] >= 0.0:
                stats.dups += 1
                if trace_dup:
                    idents = state.idents
                    TRACER.emit(
                        time, "mc", "dup",
                        mid=receipt.mid, ident=idents[row],
                        sender=idents[state.parents[row]],
                        group=receipt.group, seq=receipt.seq,
                    )
                continue
            times[row] = time
            receipt.order.append(row)
            stats.deliveries += 1
            stats.delivered_kbits += receipt.message_kbits
            stats.last_delivery = time
            if trace_deliver:
                idents = state.idents
                TRACER.emit(
                    time, "mc", "deliver",
                    mid=receipt.mid, ident=idents[row],
                    depth=state.depths[row], parent=idents[state.parents[row]],
                    group=receipt.group, seq=receipt.seq,
                )
            remaining = state.remaining - 1
            state.remaining = remaining
            if not remaining:
                # resolve through the engine (not inline) so the clock
                # advances to the final delivery before waiters wake;
                # the resolution is a foreign event that caps the batch
                # where it would interleave with per-delivery events
                engine.call_at(time, receipt.completion.resolve, receipt)
                if time < horizon:
                    horizon = time
                    cut = min(time if time > now else after_now, past_bound)
            kids = state.kids[row]
            if kids:
                forward(state, row, kids, time)
        if committed:
            perf.COUNTERS.wavefront_commits += 1
        self._arm_wavefront()

    def schedule_preview(
        self, group_name: str, source_host: str, message_kbits: float = 1.0
    ) -> dict[str, float]:
        """The relative delivery timeline an *uncontended* send from
        ``source_host`` would follow: host name -> seconds after
        origination (the source maps to 0.0).

        Derived from the template's frozen tree via
        :func:`repro.sim.transfer.delivery_timeline` against a fresh
        uplink budget — the shared ledger is deliberately untouched, so
        previewing never perturbs the plane.  With live traffic the
        actual send defers behind whatever the shared uplinks are
        already serializing; the preview is the lower envelope.  A
        preview may build the source's template, but counts no cache
        lookup and replays no tree summary: those answer for sends.
        """
        _, context, template, _ = self._template(
            group_name, source_host, message_kbits
        )
        host_of = dict(zip(context.idents, context.hosts))
        latency = self._hop_latency
        timeline = delivery_timeline(
            template.tree,
            self.service.group(group_name).snapshot,
            message_kbits,
            hop_latency=lambda a, b: latency,
            budget=UplinkBudget(),
            host_key=host_of.__getitem__,
        )
        return {host_of[ident]: when for ident, when in timeline.items()}

    # -- workload replay ------------------------------------------------

    def replay(self, events: "Sequence[ServiceEvent]") -> None:
        """Schedule a generated workload onto the clock (then
        :meth:`drain` to run it).  Events carry concrete group and host
        names (see :func:`repro.workloads.groups.generate_service_workload`);
        scheduling order equals event order, so replay is deterministic."""
        for event in events:
            self.simulator.call_at(event.time, self._apply_event, event)

    def _apply_event(self, event: "ServiceEvent") -> None:
        action = event.action
        if action == "send":  # nearly every event of a workload
            self.send(event.group, event.hosts[0], event.message_kbits)
        elif action == "create":
            self.create_group(
                event.group,
                event.hosts,
                kind=event.kind,
                per_link_kbps=event.per_link_kbps,
            )
        elif action == "drop":
            self.drop_group(event.group)
        elif action == "join":
            self.join(event.group, event.hosts[0])
        elif action == "leave":
            self.leave(event.group, event.hosts[0])
        else:  # pragma: no cover - generator emits only these
            raise ValueError(f"unknown workload action {event.action!r}")

    # -- running and reporting ------------------------------------------

    def run(self, until: float) -> None:
        """Advance the clock to ``until``."""
        self.simulator.run(until)

    def drain(self, max_events: int | None = None) -> None:
        """Run until every scheduled hop has landed."""
        self.simulator.run_until_idle(max_events)

    def receipts(self) -> tuple[SendReceipt, ...]:
        """Every send originated so far, in origination order."""
        return tuple(self._receipts)

    def audit(self) -> SequenceAudit:
        """Every group incarnation's gaps, read off its receipts (run
        :meth:`drain` first — in-flight sends legitimately show as
        gaps): a member misses a sequence iff its row of that send is
        still undelivered.  Gaps are keyed ``group/member``, members
        sorted, sequences ascending; a recreated name's later
        incarnations are told apart as ``group#2/member``, ..."""
        gaps: dict[str, tuple[int, ...]] = {}
        dups = 0
        for group_name in sorted(self._groups):
            for nth, group in enumerate(self._groups[group_name], 1):
                label = group_name if nth == 1 else f"{group_name}#{nth}"
                missing: dict[str, list[int]] = {}
                for receipt in group.receipts:
                    times = receipt.times
                    if min(times) < 0.0:
                        hosts = receipt.hosts
                        for row, when in enumerate(times):
                            if when < 0.0:
                                missing.setdefault(hosts[row], []).append(
                                    receipt.seq
                                )
                for member in sorted(missing):
                    gaps[f"{label}/{member}"] = tuple(missing[member])
                dups += group.stats.dups
        return SequenceAudit(gaps=gaps, dups=dups, unexpected=0)

    def verify_quiesced(self) -> None:
        """The plane's oracles after :meth:`drain`: every send complete
        against its frozen membership, zero sequence gaps, zero dups."""
        for receipt in self._receipts:
            receipt.verify_complete()
            if not receipt.complete:
                raise AssertionError(
                    f"send {receipt.group}#{receipt.seq} never completed"
                )
        audit = self.audit()
        if not audit.clean:
            sample = dict(list(audit.gaps.items())[:3])
            raise AssertionError(
                f"sequence audit not clean: {len(audit.gaps)} gapped "
                f"cursors (e.g. {sample}), {audit.dups} dups, "
                f"{audit.unexpected} unexpected"
            )

    def report(self) -> PlaneReport:
        """Per-group goodput, queue depth and deferral counts: one row
        per group incarnation, sorted by name then creation order (a
        dropped-and-recreated name shows its earlier incarnations as
        ``closed`` rows)."""
        rows = []
        total_deliveries = 0
        total_deferrals = 0
        for group_name in sorted(self._groups):
            for group in self._groups[group_name]:
                stats = group.stats
                rows.append(
                    {
                        "group": group_name,
                        "members": (
                            0
                            if stats.closed
                            else len(self.service.members_of(group_name))
                        ),
                        "closed": stats.closed,
                        "sends": stats.sends,
                        "deliveries": stats.deliveries,
                        "goodput_dps": round(stats.goodput_dps(), 4),
                        "goodput_kbps": round(stats.goodput_kbps(), 4),
                        "deferrals": stats.deferrals,
                        "dups": stats.dups,
                        "max_queue_depth": stats.max_queue_depth,
                    }
                )
                total_deliveries += stats.deliveries
                total_deferrals += stats.deferrals
        return PlaneReport(
            time=self.now,
            rows=tuple(rows),
            total_deliveries=total_deliveries,
            total_deferrals=total_deferrals,
        )
