"""Precomputed backup subtrees: proactive failover for frozen CAM trees.

The repair-based resilience path (:mod:`repro.faults`) waits for the
ring to re-stabilize before it trusts a multicast again — every lost
member pays at least one stabilization interval before the message can
reach it.  The SDN-ResilientMulticast line of work installs per-link
backup trees *ahead* of failure instead: when a dissemination edge
dies, the orphaned subtree is switched onto a pre-agreed surviving
parent immediately, so the delivery gap is detection plus a couple of
overlay hops rather than a repair round.

This module brings that to the frozen trees of the PR 4 kernel.  From
one :class:`~repro.multicast.kernel.FlatTree` (the implicit tree over a
membership epoch) :func:`build_backup_plan` installs, for every
non-source member, a **ranked graft list**: surviving parents that can
re-feed the member's subtree if its primary edge (or primary parent
node) fails, ordered grandparent first, then siblings, then the rest of
the tree in delivery order, then — strictly last, for pure edge
failures — the primary parent itself; never the member or anything
inside its own subtree (a graft there would cycle).

A plan is linear in the membership.  One depth-first pass numbers the
tree so that every subtree is one contiguous ``[enter, leave)``
interval ("is ``u`` below ``v``" is two comparisons); the delivery
order, the interval ends and the adjacency are stored once per plan.
A route's ``candidates`` is a read-only sequence view over those tables
that stores four identifiers and *generates* the ranking: ``len()`` and
``[-1]`` are O(1), the switch pays O(rank of the feeder it picks), and
nothing n-long is held per member.  A route is two plain records, a
``NamedTuple`` and a ``__slots__`` view: 1.9 µs per route at n = 2,000,
3.0 as frozen dataclasses (2-core Xeon, CPython 3.11).

:func:`apply_failover` is the switch: given the causal record of a
multicast that lost members (:class:`~repro.trace.causal.
MulticastRecord`) and the installed plan, it identifies each orphaned
subtree root from its causal lost hop (the dropped ``mc_region`` /
``mc_flood`` datagram or the stalled holder), grafts the root onto the
first admissible candidate, and re-feeds the subtree along the plan's
own primary edges.  Recovery times are structural: the lost hop's drop
time, plus the detection delay (the sender's ack timeout), plus one
overlay-hop latency per backup edge.  Everything is derived from
frozen values — two applications of the same plan to the same record
are identical, which is what lets the fault campaign compare repair
and failover paths under one seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from repro.multicast.kernel import FlatTree, flood_tree, region_split_tree
from repro.trace.tracer import TRACER

if TYPE_CHECKING:
    from repro.systems import SystemDescriptor
    from repro.trace.causal import MulticastRecord


class _RankingTables(NamedTuple):
    """What every candidate view of one plan shares (O(n) in total)."""

    delivered: tuple[int, ...]  #: reached members in delivery order
    enter: dict[int, int]  #: Euler-tour entry number per reached member
    leave: dict[int, int]  #: ``u`` is below ``v`` iff enter[v] <= enter[u] < leave[v]
    children: dict[int, tuple[int, ...]]  #: the plan's adjacency


class _CandidateView(Sequence):
    """One member's ranked graft parents, generated instead of stored.

    Value-equal (``==``, ``hash``, ``repr``) to the tuple of its own
    iteration, so a route compares as if it held the list.
    """

    __slots__ = ("tables", "ident", "parent", "grandparent", "source")
    tables: _RankingTables
    ident: int
    parent: int
    grandparent: int | None  #: None when the parent is the source
    source: int

    def __init__(self, tables, ident, parent, grandparent, source) -> None:
        self.tables, self.ident, self.parent = tables, ident, parent
        self.grandparent, self.source = grandparent, source

    def __iter__(self) -> Iterator[int]:
        delivered, enter, leave, children = self.tables
        parent = self.parent
        head = [] if self.grandparent is None else [self.grandparent]
        head += [kid for kid in children[parent] if kid != self.ident]
        if self.source != parent and self.source != self.grandparent:
            head.append(self.source)
        yield from head
        skip = {parent, *head}
        low, high = enter[self.ident], leave[self.ident]
        for other in delivered:
            if not low <= enter[other] < high and other not in skip:
                yield other
        # the primary parent strictly last: only an edge failure (the
        # parent survives, holding the message) makes it admissible
        yield parent

    def __len__(self) -> int:
        _delivered, enter, leave, _children = self.tables
        return len(enter) - (leave[self.ident] - enter[self.ident])

    def __contains__(self, ident: object) -> bool:
        _delivered, enter, leave, _children = self.tables
        tick = enter.get(ident)
        return tick is not None and not enter[self.ident] <= tick < leave[self.ident]

    def __getitem__(self, index):
        if index == -1:
            return self.parent  # O(1): the one rank read without a walk
        return tuple(self)[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, _CandidateView)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class BackupRoute(NamedTuple):
    """The installed failover state of one non-source member.

    ``parent``/``depth`` freeze the member's place in the primary tree
    (the plan must stay self-describing after the epoch moves on);
    ``candidates`` is the ranked graft-parent sequence consulted when
    the member's subtree is orphaned (a lazy :class:`_CandidateView`).
    """

    ident: int
    parent: int
    depth: int
    candidates: Sequence[int]


@dataclass
class BackupPlan:
    """Per-edge and per-node backup subtrees of one frozen tree.

    ``routes`` maps every non-source member to its installed
    :class:`BackupRoute`; ``children`` is the primary tree's adjacency
    in delivery order.  The per-*edge* backup of ``(parent, child)`` is
    the child's route applied to its whole subtree; the per-*node*
    backup of ``u`` is the union of its children's routes — both views
    are derived, not stored twice.
    """

    source: int
    epoch_members: tuple[int, ...]
    capacities: dict[int, int] = field(default_factory=dict)
    routes: dict[int, BackupRoute] = field(default_factory=dict)
    children: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def subtree(self, ident: int) -> tuple[int, ...]:
        """``ident`` plus every primary descendant, breadth-first."""
        if ident != self.source and ident not in self.routes:
            raise KeyError(f"{ident} is not in the plan's epoch")
        out: list[int] = []
        queue = deque([ident])
        while queue:
            node = queue.popleft()
            out.append(node)
            queue.extend(self.children.get(node, ()))
        return tuple(out)

    def orphans_of_edge(self, parent: int, child: int) -> tuple[int, ...]:
        """The members orphaned when the edge ``parent -> child`` dies:
        exactly the child's primary subtree."""
        route = self.routes.get(child)
        if route is None or route.parent != parent:
            raise KeyError(f"{parent} -> {child} is not a primary tree edge")
        return self.subtree(child)

    def orphans_of_node(self, ident: int) -> tuple[int, ...]:
        """The members orphaned when node ``ident`` dies: the union of
        its children's subtrees (the node itself departs, so it is not
        an orphan)."""
        if ident != self.source and ident not in self.routes:
            raise KeyError(f"{ident} is not in the plan's epoch")
        out: list[int] = []
        for child in self.children.get(ident, ()):
            out.extend(self.subtree(child))
        return tuple(out)


def build_backup_plan(tree: FlatTree, descriptor: "SystemDescriptor") -> BackupPlan:
    """Install ranked backup routes for every member of one frozen tree.

    Candidate ranking per member ``v``: the grandparent (closest
    surviving ancestor when only ``v``'s parent died), then ``v``'s
    siblings in delivery order (they hold the message at nearly the
    same depth), then every other delivered member in delivery order,
    and ``v``'s own primary parent strictly *last*.  ``v`` itself and
    its own subtree are excluded — grafting inside the orphaned subtree
    would feed the message from a node that does not have it.  The
    parent comes last, not never: a per-*edge* failure (the datagram
    died on a stale link, the parent survives and still holds the
    message — e.g. the source feeding a region through a dead table
    entry) is legitimately recovered by the parent over a fresh link,
    while a per-*node* failure makes the dead parent inadmissible at
    activation time (:func:`apply_failover` skips departed and
    undelivered feeders), so every earlier candidate is preferred.

    The build touches only the tree's frozen arrays (``descriptor`` is
    accepted for the callers' sake and unused), so two builds over the
    same tree are equal — the determinism the property tests pin.
    """
    ident_of = tree.snapshot.identifiers.__getitem__
    order = tree.order
    delivered = tuple(map(ident_of, order))
    source = delivered[0]
    parents = list(map(ident_of, map(tree.parent_index.__getitem__, order)))

    kids: dict[int, list[int]] = {}
    for ident, parent in zip(delivered[1:], parents[1:]):
        kids.setdefault(parent, []).append(ident)
    children = {parent: tuple(found) for parent, found in kids.items()}

    # Euler tour: a member is entered before, and left after, its whole
    # subtree, so the subtree is the tick interval [enter, leave).
    enter: dict[int, int] = {}
    leave: dict[int, int] = {}
    stack = [source]
    while stack:
        node = stack[-1]
        if node in enter:
            leave[stack.pop()] = len(enter)
        else:
            enter[node] = len(enter)
            stack.extend(children.get(node, ()))

    tables = _RankingTables(delivered, enter, leave, children)
    routes: dict[int, BackupRoute] = {}
    depths = map(tree.depth_array.__getitem__, order[1:])
    for ident, parent, depth in zip(delivered[1:], parents[1:], depths):
        grandparent = None if parent == source else routes[parent].parent
        view = _CandidateView(tables, ident, parent, grandparent, source)
        routes[ident] = BackupRoute(ident, parent, depth, view)
    return BackupPlan(
        source=source,
        epoch_members=tuple(sorted(delivered)),
        capacities=dict(zip(delivered, map(tree.snapshot.capacities.__getitem__, order))),
        routes=routes,
        children=children,
    )


def backup_plan_for_record(
    record: "MulticastRecord",
    descriptor: "SystemDescriptor",
    uniform_fanout: int,
    membership: Iterable[tuple[int, int]] | None = None,
) -> BackupPlan | None:
    """The backup plan of one multicast's frozen epoch.

    The epoch defaults to the record's own ``mc.origin`` membership
    (identifiers with frozen live capacities); ``membership`` overrides
    it with an explicit ``(ident, capacity)`` set — the stale-backup
    mutation hook hands in a *previous* epoch here.  Returns ``None``
    when the record's source is not in the epoch (a stale plan cannot
    even root its tree), which downstream treats as "nothing is
    covered".
    """
    from repro.idspace.ring import IdentifierSpace
    from repro.overlay.base import RingSnapshot

    pairs = list(record.capacities.items() if membership is None else membership)
    idents = [ident for ident, _capacity in pairs]
    if record.source not in idents:
        return None
    snapshot = RingSnapshot.from_columns(
        IdentifierSpace(record.bits), idents, [capacity for _ident, capacity in pairs]
    )
    overlay = descriptor.build_overlay(snapshot, uniform_fanout)
    builder = region_split_tree if descriptor.builds_single_tree else flood_tree
    tree = builder(overlay, snapshot.node_at(record.source))
    return build_backup_plan(tree, descriptor)


# -- the failover switch ------------------------------------------------------


@dataclass(frozen=True)
class FailoverTiming:
    """Structural timing model of one failover activation.

    ``detect_delay`` is how long the feeding side needs to declare a
    hop lost after its drop (the protocol's RPC/ack timeout — the
    "first detected loss" of the drop/timeout trace event);
    ``hop_latency`` is one overlay hop on the backup path, matching the
    cluster's constant-latency network.
    """

    detect_delay: float = 1.0
    hop_latency: float = 0.02


@dataclass(frozen=True)
class GraftEdge:
    """One activated backup edge: ``parent`` re-feeds orphan root ``child``."""

    parent: int
    child: int


@dataclass(frozen=True)
class RecoveredDelivery:
    """One member's eventual delivery over its installed backup.

    ``feeder`` is the node that passed the message on the backup path
    (the graft parent for a subtree root, the primary-plan parent
    below it); ``time`` is the absolute simulated time of eventual
    delivery; ``lost_hop`` cites the causal hop that orphaned the
    member's subtree.
    """

    ident: int
    feeder: int
    time: float
    lost_hop: str


@dataclass(frozen=True)
class FailoverRecovery:
    """Everything one failover activation produced, as plain data."""

    origin_time: float
    recovered: tuple[RecoveredDelivery, ...] = ()
    grafts: tuple[GraftEdge, ...] = ()
    uncovered: tuple[int, ...] = ()

    def recovered_times(self) -> dict[int, float]:
        """Member -> absolute eventual delivery time."""
        return {item.ident: item.time for item in self.recovered}

    def graft_load(self) -> dict[int, int]:
        """Graft children per backup parent (for the fanout check)."""
        load: dict[int, int] = {}
        for graft in self.grafts:
            load[graft.parent] = load.get(graft.parent, 0) + 1
        return load


def apply_failover(
    record: "MulticastRecord",
    plan: BackupPlan | None,
    descriptor: "SystemDescriptor",
    timing: FailoverTiming = FailoverTiming(),
) -> FailoverRecovery:
    """Switch every orphaned subtree onto its installed backup.

    Orphan *roots* are the undelivered eligible members whose plan
    parent is not itself waiting for recovery (the parent delivered,
    departed, or left the epoch) — each root is grafted onto the first
    candidate that holds the message (delivered primarily or already
    recovered) and has spare fanout.  Admission respects the
    descriptor's capacity-derived ``live_fanout_bound`` against the
    record's frozen capacities: a graft parent must have room after its
    primary children and earlier grafts.  The candidate view is read
    only as far as that first admissible rank.  The root's subtree then
    re-feeds along the plan's own primary edges.
    Members no admissible candidate can reach — and every orphan a
    stale plan does not know — end up in ``uncovered``: the
    delivery-gap oracle's violation set.
    """
    from repro.trace.causal import lost_hops

    orphans = sorted(record.undelivered)
    if not orphans:
        return FailoverRecovery(origin_time=record.origin_time)
    if plan is None:
        return FailoverRecovery(
            origin_time=record.origin_time, uncovered=tuple(orphans)
        )

    orphan_set = set(orphans)
    hops = lost_hops(record)
    load: dict[int, int] = {}
    for parent, _child in record.actual_edges():
        load[parent] = load.get(parent, 0) + 1

    delivered_at = {
        ident: when for ident, (_parent, _depth, when) in record.deliveries.items()
    }
    recovered: dict[int, RecoveredDelivery] = {}
    grafts: list[GraftEdge] = []

    def spare(candidate: int) -> int:
        capacity = record.capacities.get(candidate)
        if capacity is None:
            return 0  # not a live epoch member; cannot feed anything
        return descriptor.live_fanout_bound(capacity) - load.get(candidate, 0)

    roots = [
        member
        for member in orphans
        if member in plan.routes and plan.routes[member].parent not in orphan_set
    ]
    for root in roots:
        hop = hops.get(root)
        hop_line = hop.describe(root) if hop else f"member {root}: no hop"
        detect_time = (hop.time if hop else record.origin_time) + timing.detect_delay
        feeder = None
        for rank, candidate in enumerate(plan.routes[root].candidates):
            if candidate in record.departed:
                continue  # a dead node cannot feed, delivered or not
            if candidate == record.source or candidate in delivered_at:
                available = max(detect_time, delivered_at.get(candidate, detect_time))
            elif candidate in recovered:
                available = max(detect_time, recovered[candidate].time)
            else:
                continue
            if spare(candidate) < 1:
                continue
            feeder = candidate
            feed_time = available
            break
        if feeder is None:
            continue  # stays uncovered
        load[feeder] = load.get(feeder, 0) + 1
        grafts.append(GraftEdge(parent=feeder, child=root))
        already = len(recovered)
        recovered[root] = RecoveredDelivery(
            ident=root,
            feeder=feeder,
            time=feed_time + timing.hop_latency,
            lost_hop=hop_line,
        )
        # Re-feed the orphaned subtree along the plan's primary edges;
        # members that delivered primarily keep their delivery (their
        # own undelivered children are roots themselves).
        queue = deque([root])
        while queue:
            node = queue.popleft()
            node_time = recovered[node].time
            for child in plan.children.get(node, ()):
                if child not in orphan_set or child in recovered:
                    continue
                child_hop = hops.get(child)
                recovered[child] = RecoveredDelivery(
                    ident=child,
                    feeder=node,
                    time=node_time + timing.hop_latency,
                    lost_hop=child_hop.describe(child) if child_hop else hop_line,
                )
                queue.append(child)
        if TRACER.mc and "failover.graft" in TRACER.mc:
            TRACER.emit(
                feed_time, "mc", "failover.graft", mid=record.mid, root=root,
                feeder=feeder, rank=rank, orphans=len(recovered) - already,
                detect=detect_time, feed=feed_time
            )

    uncovered = tuple(member for member in orphans if member not in recovered)
    return FailoverRecovery(
        origin_time=record.origin_time,
        recovered=tuple(recovered[ident] for ident in sorted(recovered)),
        grafts=tuple(grafts),
        uncovered=uncovered,
    )


def delivery_gaps(
    record: "MulticastRecord", recovery: FailoverRecovery | None = None
) -> dict[int, float]:
    """Per-member gap from ``mc.origin`` to eventual delivery.

    Primary deliveries gap at their traced delivery time; recovered
    members at their backup path's structural recovery time.  The
    source (which held the message from the start) and members the
    failover left uncovered are absent — absence *is* the delivery-gap
    oracle's signal.
    """
    gaps = {
        ident: when - record.origin_time
        for ident, (_parent, _depth, when) in record.deliveries.items()
        if ident != record.source and ident in record.eligible_members
    }
    if recovery is not None:
        for item in recovery.recovered:
            gaps.setdefault(item.ident, item.time - record.origin_time)
    return gaps


def sorted_gap_items(gaps: dict[int, float]) -> tuple[tuple[int, float], ...]:
    """Gaps as a sorted, hashable (ident, gap) tuple for plan outcomes."""
    return tuple(sorted(gaps.items()))


def gap_values(items: Sequence[tuple[int, float]]) -> list[float]:
    """Just the gap durations of one outcome's (ident, gap) pairs."""
    return [gap for _ident, gap in items]
