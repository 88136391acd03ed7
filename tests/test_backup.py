"""Property tests for precomputed backup trees (:mod:`repro.multicast.backup`).

Three pinned properties, each over random memberships/capacities for
both a region-splitting and a flood system:

* **exact orphan coverage** — for every primary edge and node, the
  installed plan's orphan set is exactly the frozen subtree an
  independent recomputation (from the routes' own frozen parents)
  yields, and every non-source member has a route;
* **fanout bounds** — activating a failover never pushes any backup
  parent past the descriptor's ``live_fanout_bound`` counting its
  primary children, and recovered/uncovered partition the orphan set;
* **determinism** — two from-scratch builds over the same membership
  are equal, value for value (what lets the campaign install plans in
  worker processes and compare them across runs);
* **the lazy view is the eager list** — every route's generated
  ``candidates`` equals, under every sequence operation, the ranking
  the quadratic builder used to materialise (:func:`eager_ranking`,
  the reference that now lives only here), and a plan stays linear in
  the membership at n = 20,000.
"""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multicast.backup import (
    BackupPlan,
    FailoverTiming,
    apply_failover,
    backup_plan_for_record,
    build_backup_plan,
    delivery_gaps,
    gap_values,
    sorted_gap_items,
)
from repro.multicast.kernel import flood_tree, region_split_tree
from repro.systems import get_system
from repro.trace.causal import MulticastRecord
from repro.trace.schema import validate_events
from repro.trace.tracer import TRACER
from tests.conftest import make_snapshot, random_snapshot

BITS = 10
ORIGIN = 100.0
HOP = 0.02

memberships = st.sets(st.integers(min_value=0, max_value=1023), min_size=4, max_size=48)
cap_pools = st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=6)
systems = st.sampled_from(["cam-chord", "cam-koorde"])


def build_tree(system: str, idents, caps):
    """One frozen tree (plus capacities) over a cycled-capacity ring."""
    descriptor = get_system(system)
    ordered = sorted(idents)
    capacities = [
        max(descriptor.min_capacity, caps[i % len(caps)])
        for i in range(len(ordered))
    ]
    snap = make_snapshot(BITS, ordered, capacity=capacities)
    overlay = descriptor.build_overlay(snap, uniform_fanout=3)
    builder = region_split_tree if descriptor.builds_single_tree else flood_tree
    tree = builder(overlay, snap.nodes[0])
    return descriptor, tree, {node.ident: node.capacity for node in snap.nodes}


def record_from_tree(tree, descriptor, capacities) -> MulticastRecord:
    """A fully-delivered causal record synthesized from one frozen tree."""
    deliveries = {
        ident: (parent, tree.depth[ident], ORIGIN + tree.depth[ident] * HOP)
        for ident, parent in tree.parent.items()
    }
    return MulticastRecord(
        mid=1,
        source=tree.source_ident,
        system=descriptor.name,
        bits=BITS,
        origin_time=ORIGIN,
        members=frozenset(tree.parent),
        capacities=dict(capacities),
        deliveries=deliveries,
    )


def orphan_record(tree, descriptor, capacities, plan: BackupPlan, victim: int):
    """The record after node ``victim`` died mid-dissemination: the
    victim departed, its whole subtree never delivered."""
    record = record_from_tree(tree, descriptor, capacities)
    for ident in plan.subtree(victim):
        record.deliveries.pop(ident, None)
    record.departed = frozenset({victim})
    return record


def descendants(plan: BackupPlan, root: int) -> set[int]:
    """Subtree membership recomputed from the routes' frozen parents
    alone — independent of the plan's stored ``children`` adjacency."""
    parents = {ident: route.parent for ident, route in plan.routes.items()}
    out = {root}
    changed = True
    while changed:
        changed = False
        for ident, parent in parents.items():
            if parent in out and ident not in out:
                out.add(ident)
                changed = True
    return out


@settings(max_examples=40, deadline=None)
@given(idents=memberships, caps=cap_pools, system=systems)
def test_backup_covers_exactly_the_orphan_set(idents, caps, system):
    descriptor, tree, capacities = build_tree(system, idents, caps)
    plan = build_backup_plan(tree, descriptor)
    assert set(plan.routes) == set(plan.epoch_members) - {plan.source}
    for child, route in plan.routes.items():
        assert set(plan.orphans_of_edge(route.parent, child)) == descendants(
            plan, child
        )
    for ident in plan.epoch_members:
        union: set[int] = set()
        for child in plan.children.get(ident, ()):
            union |= descendants(plan, child)
        assert set(plan.orphans_of_node(ident)) == union


@settings(max_examples=40, deadline=None)
@given(idents=memberships, caps=cap_pools, system=systems)
def test_backup_candidates_never_cycle(idents, caps, system):
    """No installed candidate is the member itself or inside its own
    orphaned subtree — a graft there would feed the message from a node
    that does not have it.  The primary parent appears exactly once,
    strictly last: admissible only for pure edge failures, where the
    parent survives and still holds the message."""
    descriptor, tree, capacities = build_tree(system, idents, caps)
    plan = build_backup_plan(tree, descriptor)
    for ident, route in plan.routes.items():
        blocked = descendants(plan, ident)
        assert ident in blocked  # own subtree includes the member
        assert not blocked.intersection(route.candidates)
        assert route.candidates[-1] == route.parent
        assert route.parent not in route.candidates[:-1]


@settings(max_examples=30, deadline=None)
@given(
    idents=memberships,
    caps=cap_pools,
    victim_index=st.integers(min_value=0),
    system=systems,
)
def test_failover_partitions_orphans_within_fanout_bounds(
    idents, caps, victim_index, system
):
    descriptor, tree, capacities = build_tree(system, idents, caps)
    plan = build_backup_plan(tree, descriptor)
    non_source = sorted(set(plan.epoch_members) - {plan.source})
    victim = non_source[victim_index % len(non_source)]
    record = orphan_record(tree, descriptor, capacities, plan, victim)
    recovery = apply_failover(record, plan, descriptor, FailoverTiming())

    recovered = {item.ident for item in recovery.recovered}
    assert recovered | set(recovery.uncovered) == record.undelivered
    assert not recovered.intersection(recovery.uncovered)

    primary: dict[int, int] = {}
    for parent, _child in record.actual_edges():
        primary[parent] = primary.get(parent, 0) + 1
    for parent, grafts in recovery.graft_load().items():
        bound = descriptor.live_fanout_bound(record.capacities[parent])
        assert primary.get(parent, 0) + grafts <= bound
        # feeders hold the message: primary delivery, the source, or
        # their own (earlier) backup recovery
        assert (
            parent == record.source
            or parent in record.deliveries
            or parent in recovered
        )

    gaps = delivery_gaps(record, recovery)
    for member in recovered:
        assert gaps[member] > 0.0
    assert gap_values(sorted_gap_items(gaps)) == [
        gap for _ident, gap in sorted(gaps.items())
    ]


@settings(max_examples=25, deadline=None)
@given(idents=memberships, caps=cap_pools, system=systems)
def test_backup_plan_deterministic_across_two_builds(idents, caps, system):
    """Two fully independent builds — snapshot up — are value-equal."""
    descriptor_a, tree_a, _ = build_tree(system, idents, caps)
    descriptor_b, tree_b, _ = build_tree(system, idents, caps)
    plan_a = build_backup_plan(tree_a, descriptor_a)
    plan_b = build_backup_plan(tree_b, descriptor_b)
    assert plan_a == plan_b


def test_plan_for_record_and_error_paths():
    descriptor, tree, capacities = build_tree("cam-chord", {1, 64, 200, 512, 900}, [3])
    record = record_from_tree(tree, descriptor, capacities)

    plan = backup_plan_for_record(record, descriptor, uniform_fanout=3)
    assert plan is not None
    assert set(plan.epoch_members) == set(record.members)
    assert plan.source == record.source

    # a stale epoch that does not know the source roots nothing
    stale = [(ident, cap) for ident, cap in capacities.items() if ident != record.source]
    assert backup_plan_for_record(record, descriptor, 3, membership=stale) is None

    with pytest.raises(KeyError):
        plan.subtree(7777)  # not an epoch member
    with pytest.raises(KeyError):
        plan.orphans_of_edge(1, 1)  # not a primary edge
    with pytest.raises(KeyError):
        plan.orphans_of_node(7777)  # not an epoch member: not "nobody orphaned"
    leaf = next(ident for ident in plan.routes if ident not in plan.children)
    assert plan.orphans_of_node(leaf) == ()

    # nothing undelivered -> nothing to recover
    recovery = apply_failover(record, plan, descriptor, FailoverTiming())
    assert not recovery.recovered and not recovery.uncovered

    # no plan at all -> everything stays uncovered
    victim = next(iter(set(plan.epoch_members) - {plan.source}))
    broken = orphan_record(tree, descriptor, capacities, plan, victim)
    bare = apply_failover(broken, None, descriptor, FailoverTiming())
    assert set(bare.uncovered) == broken.undelivered


# -- the lazy candidate view against the eager reference ----------------------


def eager_ranking(plan: BackupPlan, ident: int) -> tuple[int, ...]:
    """The ranking as the quadratic builder materialised it, from the
    routes' frozen parents and the plan's delivery order alone (routes
    are installed in delivery order, the source ahead of them)."""
    parents = {member: route.parent for member, route in plan.routes.items()}
    order = [plan.source, *plan.routes]
    parent = parents[ident]
    blocked = descendants(plan, ident) | {parent}
    ranked: list[int] = []

    def admit(candidate: int) -> None:
        if candidate not in blocked and candidate not in ranked:
            ranked.append(candidate)

    if parent != plan.source:
        admit(parents[parent])
    for sibling in order:
        if parents.get(sibling) == parent:
            admit(sibling)
    admit(plan.source)
    for other in order:
        admit(other)
    ranked.append(parent)
    return tuple(ranked)


@settings(max_examples=30, deadline=None)
@given(idents=memberships, caps=cap_pools, system=systems)
def test_candidate_view_equals_the_eager_ranking(idents, caps, system):
    descriptor, tree, _ = build_tree(system, idents, caps)
    plan = build_backup_plan(tree, descriptor)
    twin = build_backup_plan(build_tree(system, idents, caps)[1], descriptor)
    assert plan == twin
    delivered = [tree.snapshot.identifiers[index] for index in tree.order]
    assert [plan.source, *plan.routes] == delivered
    assert list(reversed(plan.routes)) == delivered[:0:-1]
    for ident, route in plan.routes.items():
        view = route.candidates
        for name in ("ident", "parent", "depth", "candidates"):
            with pytest.raises(AttributeError):
                setattr(route, name, None)
        assert repr(route) == (
            f"BackupRoute(ident={ident}, parent={route.parent}, "
            f"depth={tree.depth[ident]}, candidates={tuple(view)!r})"
        )
        expected = eager_ranking(plan, ident)
        size = len(expected)
        assert tuple(view) == expected
        assert len(view) == size == sum(1 for _ in view)
        assert view[-1] == route.parent
        assert [view[i] for i in range(-size, size)] == list(expected + expected)
        for beyond in (size, -size - 1):
            with pytest.raises(IndexError):
                view[beyond]
        for cut in (slice(None, -1), slice(1, None), slice(None, None, -2), slice(2, 5)):
            assert view[cut] == expected[cut]
        for member in (*plan.epoch_members, -1):
            assert (member in view) == (member in expected)
        assert view == expected and expected == view
        assert view != expected[:-1] and view != list(expected)
        assert view == twin.routes[ident].candidates
        assert hash(view) == hash(expected) == hash(tuple(view))
        assert repr(view) == repr(expected) == repr(tuple(view))


def test_plan_is_linear_at_20k():
    """A plan holds O(n) entries: the 20,000 candidate *tuples* alone
    would need > 3 GB; the views need four identifiers each."""
    snap = random_snapshot(20, 20_000, seed=0)
    for system in ("cam-chord", "cam-koorde"):
        descriptor = get_system(system)
        overlay = descriptor.build_overlay(snap, uniform_fanout=3)
        builder = region_split_tree if descriptor.builds_single_tree else flood_tree
        tree = builder(overlay, snap.nodes[0])
        tracemalloc.start()
        try:
            plan = build_backup_plan(tree, descriptor)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6, f"{system}: plan build peaked at {peak / 1e6:.1f} MB"

        # subtree sizes leaf-up over the reversed delivery order
        size = dict.fromkeys(plan.routes, 1)
        size[plan.source] = 1
        for ident in reversed(plan.routes):
            size[plan.routes[ident].parent] += size[ident]
        reached = size[plan.source]
        assert reached == len(plan.routes) + 1
        assert sum(len(route.candidates) for route in plan.routes.values()) == sum(
            reached - size[ident] for ident in plan.routes
        )


def test_failover_traces_one_event_per_graft():
    descriptor, tree, capacities = build_tree(
        "cam-chord", {1, 64, 200, 333, 512, 640, 777, 900, 1000}, [3]
    )
    plan = build_backup_plan(tree, descriptor)
    victim = max(plan.children, key=lambda ident: (ident != plan.source, ident))
    record = orphan_record(tree, descriptor, capacities, plan, victim)
    quiet = apply_failover(record, plan, descriptor, FailoverTiming())

    with TRACER.capture() as mark:
        traced = apply_failover(record, plan, descriptor, FailoverTiming())
        events = TRACER.events_since(mark)

    assert traced == quiet and quiet.grafts
    assert not validate_events(events)
    assert [event.name for event in events] == ["mc.failover.graft"] * len(quiet.grafts)
    times = quiet.recovered_times()
    for event, graft in zip(events, quiet.grafts):
        data = event.data
        assert (data["mid"], data["root"], data["feeder"]) == (
            record.mid,
            graft.child,
            graft.parent,
        )
        assert plan.routes[graft.child].candidates[data["rank"]] == graft.parent
        assert data["detect"] <= data["feed"] == event.time
        assert times[graft.child] == data["feed"] + FailoverTiming().hop_latency
    assert sum(event.data["orphans"] for event in events) == len(quiet.recovered)
