"""Kernel/oracle equivalence: the flat-array trees ARE the dict trees.

The flat-array kernel (:mod:`repro.multicast.kernel`) must reproduce
the dict recorders of :mod:`tests.dict_trees` *edge for edge* — same
parents, same depths, same children counts, and the same delivery
order (the dicts' insertion order), because downstream consumers
iterate the views and their output depends on that order.
Property-tested here for all four registry systems, El-Ansary's
broadcast and proximity neighbor selection over random memberships,
capacities and sources.
"""

from __future__ import annotations

import gc
import math
import re
from itertools import groupby
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.idspace.ring import IdentifierSpace
from repro.metrics.tree_stats import summarize_tree
from repro.multicast import kernel
from repro.multicast.cam_chord import cam_chord_multicast
from repro.multicast.cam_koorde import cam_koorde_multicast
from repro.multicast.chord_broadcast import chord_broadcast, select_broadcast_children
from repro.multicast.kernel import FlatTree, flood_tree, region_split_tree
from repro.multicast.koorde_flood import koorde_flood
from repro.multicast.proximity import pns_cam_chord_multicast, select_children_pns
from repro.overlay.base import Node, RingSnapshot, build_snapshot
from repro.overlay.cam_chord import CamChordOverlay, spare_sequences
from repro.overlay.cam_koorde import CamKoordeOverlay, cam_koorde_shift_groups
from repro.overlay.chord import ChordOverlay
from repro.overlay.koorde import KoordeOverlay
from repro.sim.latency import GeographicLatency
from repro.systems import all_descriptors, get_system
from tests import dict_trees
from tests.conftest import make_snapshot
from tests.golden import kernel_trees

memberships = st.sets(st.integers(min_value=0, max_value=1023), min_size=1, max_size=80)


def cycle_capacities(caps: list[int], count: int, floor: int) -> list[int]:
    return [max(floor, caps[i % len(caps)]) for i in range(count)]


def assert_same_tree(flat: FlatTree, oracle: tuple[dict, dict]) -> None:
    """Edge-for-edge, order-for-order equality with the dict oracle."""
    parent, depth = oracle
    expected = dict_trees.derived(parent, depth)
    assert isinstance(flat, FlatTree)
    assert flat.source_ident == next(iter(parent))
    assert flat.messages_sent == len(parent) - 1
    assert flat.receiver_count == len(parent)
    # dict equality AND insertion (delivery) order
    assert flat.parent == parent
    assert list(flat.parent) == list(parent)
    assert flat.depth == depth
    assert list(flat.depth) == list(depth)
    flat_children = flat.children_counts()
    assert flat_children == expected["children"]
    assert list(flat_children) == list(expected["children"])
    assert flat.path_length_histogram() == expected["histogram"]
    assert flat.average_path_length() == expected["mean"]
    assert flat.max_path_length() == expected["max"]
    # the fused one-pass summary equals the dict-walking one exactly
    assert summarize_tree(flat) == expected["stats"]


@settings(max_examples=60, deadline=None)
@given(
    idents=memberships,
    caps=st.lists(st.integers(min_value=2, max_value=30), min_size=1, max_size=8),
    source_index=st.integers(min_value=0),
)
def test_cam_chord_kernel_matches_reference(idents, caps, source_index):
    ordered = sorted(idents)
    capacities = cycle_capacities(caps, len(ordered), floor=2)
    snap = make_snapshot(10, ordered, capacity=capacities)
    overlay = CamChordOverlay(snap)
    source = snap.nodes[source_index % len(snap.nodes)]
    assert_same_tree(
        region_split_tree(overlay, source), dict_trees.region_split(overlay, source)
    )


@settings(max_examples=60, deadline=None)
@given(
    idents=memberships,
    base=st.integers(min_value=2, max_value=16),
    source_index=st.integers(min_value=0),
)
def test_chord_kernel_matches_reference(idents, base, source_index):
    """The Figure 6 "Chord" baseline: uniform fanout, same splitter."""
    ordered = sorted(idents)
    snap = make_snapshot(10, ordered, capacity=2)
    overlay = ChordOverlay(snap, base=base)
    source = snap.nodes[source_index % len(snap.nodes)]
    assert_same_tree(
        region_split_tree(overlay, source), dict_trees.region_split(overlay, source)
    )


@settings(max_examples=60, deadline=None)
@given(
    idents=memberships,
    caps=st.lists(st.integers(min_value=4, max_value=30), min_size=1, max_size=8),
    source_index=st.integers(min_value=0),
)
def test_cam_koorde_kernel_matches_reference(idents, caps, source_index):
    ordered = sorted(idents)
    capacities = cycle_capacities(caps, len(ordered), floor=4)
    snap = make_snapshot(10, ordered, capacity=capacities)
    overlay = CamKoordeOverlay(snap)
    source = snap.nodes[source_index % len(snap.nodes)]
    assert_same_tree(flood_tree(overlay, source), dict_trees.flood(overlay, source))


@settings(max_examples=60, deadline=None)
@given(
    idents=memberships,
    degree=st.sampled_from([2, 3, 4, 8, 16]),
    source_index=st.integers(min_value=0),
)
def test_koorde_kernel_matches_reference(idents, degree, source_index):
    ordered = sorted(idents)
    snap = make_snapshot(10, ordered, capacity=2)
    overlay = KoordeOverlay(snap, degree=degree)
    source = snap.nodes[source_index % len(snap.nodes)]
    assert_same_tree(flood_tree(overlay, source), dict_trees.flood(overlay, source))


def test_all_sources_match_on_all_registry_systems():
    """Every source over every registry system, one deterministic ring."""
    idents = [3, 17, 40, 99, 123, 256, 300, 512, 700, 801, 900, 1011]
    snap = make_snapshot(10, idents, capacity=[4, 5, 4, 5, 6, 7, 8, 4, 5, 5, 6, 4])
    for descriptor in all_descriptors():
        overlay = descriptor.build_overlay(snap, uniform_fanout=4)
        for source in snap.nodes:
            flat = descriptor.run_multicast(overlay, source)
            assert isinstance(flat, FlatTree), descriptor.name
            if isinstance(overlay, (CamKoordeOverlay, KoordeOverlay)):
                reference = dict_trees.flood(overlay, source)
            else:
                reference = dict_trees.region_split(overlay, source)
            assert_same_tree(flat, reference)


def test_flood_csr_is_built_once_per_overlay():
    """A second source over the same flood overlay probes nothing: the
    CSR adjacency is complete after the first build."""
    snap = make_snapshot(10, list(range(0, 1024, 9)), capacity=4)
    overlay = CamKoordeOverlay(snap)
    flood_tree(overlay, snap.nodes[0])
    before = perf.snapshot()
    flood_tree(overlay, snap.nodes[1])
    assert perf.since(before).kernel_resolves == 0


@pytest.mark.parametrize("name", ["cam-chord", "chord"])
def test_cold_split_tree_probes_at_most_n_minus_1(name):
    """Work follows the tree: a probe is only ever spent on a slot that
    holds a child, and a child that is its region's last row or its
    parent's successor costs none — so a tree of n members takes fewer
    than n probes (2.9 n when every slot evaluated was probed).  Gated
    by count, not by the clock."""
    group = kernel_trees.quick_group(get_system(name))
    before = perf.snapshot()
    tree = group.multicast_from(group.random_member(Random(0)))
    assert tree.receiver_count == len(group) == 5_000
    assert 0 < perf.since(before).kernel_resolves <= len(tree.order) - 1


def test_koorde_state_probes_once_per_member():
    """A Koorde row is a run of the ring: one probe finds its start."""
    group = kernel_trees.quick_group(get_system("koorde"))
    before = perf.snapshot()
    group.multicast_from(group.random_member(Random(0)))
    assert perf.since(before).kernel_resolves == len(group)


#: the probe counts one cold tree over n members may take, per system
ALLOWED_PROBES = {
    # every probe of a region-split tree delivers a member (DESIGN
    # 5.10), so a tree of n members takes fewer than n
    "cam-chord": lambda n, caps: range(1, n),
    "chord": lambda n, caps: range(1, n),
    # a CAM-Koorde state is one probe per shift-group identifier
    "cam-koorde": lambda n, caps: [sum(caps) - 2 * n],
    # a Koorde state is one probe per member
    "koorde": lambda n, caps: [n],
}


@pytest.mark.parametrize("name", ALLOWED_PROBES)
def test_probe_count_oracle(name):
    """Counts, not time: one cold tree over n = 2,000 members with
    capacities in [4, 31] reaches every member for exactly the allowed
    number of ring-index probes."""
    n, rng = 2_000, Random(0)
    capacities = [rng.randint(4, 31) for _ in range(n)]
    snapshot = build_snapshot(IdentifierSpace(14), capacities, rng=rng)
    system = get_system(name)
    overlay = system.build_overlay(snapshot, 16)
    before = perf.snapshot()
    tree = system.run_multicast(overlay, snapshot.node_for_index(n // 2))
    probes = perf.since(before).kernel_resolves
    assert tree.receiver_count == n
    assert probes in ALLOWED_PROBES[name](n, capacities), probes


GOLDEN_SCENARIOS = dict(kernel_trees.scenarios())


@pytest.mark.parametrize("key", GOLDEN_SCENARIOS)
def test_kernel_trees_match_golden(key):
    """Same arrays, same identifier draw as at the last commit that
    resolved by bisect (see tests/golden/kernel_trees.py)."""
    assert GOLDEN_SCENARIOS[key]() == kernel_trees.load()[key]


def test_kernel_path_to_source_and_delivery_queries():
    idents = [1, 50, 200, 400, 600, 800, 1000]
    snap = make_snapshot(10, idents, capacity=3)
    overlay = CamChordOverlay(snap)
    flat = region_split_tree(overlay, snap.nodes[0])
    parent, _ = dict_trees.region_split(overlay, snap.nodes[0])
    for ident in idents:
        assert flat.path_to_source(ident) == dict_trees.path_to_source(parent, ident)
    flat.verify_exactly_once(set(idents))


class TestKernelStateCache:
    """Per-overlay kernel state: memoized, bounded, dropped with its overlay."""

    @staticmethod
    def _overlay(count: int, seed: int) -> CamKoordeOverlay:
        return CamKoordeOverlay(
            build_snapshot(IdentifierSpace(12), [4] * count, rng=Random(seed))
        )

    def test_state_reused_for_same_overlay(self):
        overlay = self._overlay(30, seed=0)
        state = kernel._flood_state(overlay)
        assert kernel._flood_state(overlay) is state

    def test_capacity_eviction_counts(self):
        overlays = [
            self._overlay(20, seed) for seed in range(kernel._STATE_CAPACITY + 2)
        ]
        before = perf.snapshot()
        for overlay in overlays:
            kernel._flood_state(overlay)
        delta = perf.since(before)
        assert delta.kernel_state_evictions >= 2
        assert len(kernel._FLOOD_STATES) <= kernel._STATE_CAPACITY

    def test_dead_overlay_entry_dropped_without_eviction(self):
        overlay = self._overlay(20, seed=99)
        kernel._flood_state(overlay)
        population = len(kernel._FLOOD_STATES)
        before = perf.snapshot()
        del overlay
        gc.collect()
        assert len(kernel._FLOOD_STATES) == population - 1
        assert perf.since(before).kernel_state_evictions == 0


# -- the run formulations, at their edges -------------------------------------


def assert_every_source_matches(overlay, builder, reference) -> None:
    for source in overlay.snapshot.nodes:
        assert_same_tree(builder(overlay, source), reference(overlay, source))


def all_four(snap, fanout: int):
    """(overlay, kernel builder, dict recorder) of each registry system."""
    yield CamChordOverlay(snap), region_split_tree, dict_trees.region_split
    yield ChordOverlay(snap, base=fanout), region_split_tree, dict_trees.region_split
    yield CamKoordeOverlay(snap), flood_tree, dict_trees.flood
    yield KoordeOverlay(snap, degree=fanout), flood_tree, dict_trees.flood


@pytest.mark.parametrize(
    "bits, idents",
    [
        (10, [77]),
        (10, [5, 600]),
        (10, [0, 511, 1023]),
        # members on both sides of the wrap: from every source but row 0
        # the region straddles it, and the last row's starts at row 0
        (10, [0, 1, 2, 300, 301, 640, 900, 1021, 1022, 1023]),
        (4, list(range(16))),  # a full ring
    ],
    ids=["n=1", "n=2", "n=3", "wrap", "full"],
)
def test_runs_match_the_recorders_at_the_ring_edges(bits, idents):
    capacities = cycle_capacities([4, 9, 5, 17, 6], len(idents), floor=4)
    snap = make_snapshot(bits, idents, capacity=capacities)
    for overlay, builder, reference in all_four(snap, fanout=3):
        assert_every_source_matches(overlay, builder, reference)


def rule_systems(snap, base: int, placement: int):
    """(overlay, kernel routine, dict child rule) of El-Ansary's broadcast
    and of proximity neighbor selection, the two rules ``select_tree``
    builds."""
    geo = GeographicLatency(jitter=0.0, placement_seed=placement)

    def delay(a: int, b: int) -> float:
        return geo.delay(a, b, Random(0))

    yield ChordOverlay(snap, base=base), chord_broadcast, select_broadcast_children
    yield (
        CamChordOverlay(snap),
        lambda overlay, source: pns_cam_chord_multicast(overlay, source, delay),
        lambda overlay, node, limit: select_children_pns(overlay, node, limit, delay),
    )


def assert_rules_match(snap, base: int, placement: int) -> None:
    for overlay, routine, rule in rule_systems(snap, base, placement):
        for source in snap.nodes:
            assert_same_tree(
                routine(overlay, source), dict_trees.region_split(overlay, source, rule)
            )


@settings(max_examples=30, deadline=None)
@given(
    idents=st.sets(st.integers(min_value=0, max_value=1023), min_size=1, max_size=40),
    caps=st.lists(st.integers(min_value=2, max_value=16), min_size=1, max_size=6),
    base=st.integers(min_value=2, max_value=8),
    placement=st.integers(min_value=0, max_value=5),
)
def test_select_tree_matches_the_dict_split_from_every_source(
    idents, caps, base, placement
):
    ordered = sorted(idents)
    capacities = cycle_capacities(caps, len(ordered), floor=2)
    snap = make_snapshot(10, ordered, capacity=capacities)
    assert_rules_match(snap, base, placement)


@pytest.mark.parametrize(
    "idents",
    [[77], [5, 600], [0, 1, 2, 300, 301, 640, 900, 1021, 1022, 1023]],
    ids=["n=1", "n=2", "wrap"],
)
def test_select_tree_matches_the_dict_split_at_the_ring_edges(idents):
    capacities = cycle_capacities([4, 9, 5, 17, 6], len(idents), floor=2)
    assert_rules_match(make_snapshot(10, idents, capacity=capacities), base=3, placement=1)


def assert_children_are_runs_of_order(tree: FlatTree) -> None:
    """The :class:`FlatTree` contract the plane's schedule templates
    read children by: grouped by parent, ``order[1:]`` is one
    contiguous run per forwarder, of its child count, in the order the
    forwarders were delivered."""
    order = list(tree.order)
    child_count = tree.child_count
    runs = [
        (parent, len(list(children)))
        for parent, children in groupby(order[1:], key=tree.parent_index.__getitem__)
    ]
    assert runs == [(row, child_count[row]) for row in order if child_count[row]]


@settings(max_examples=40, deadline=None)
@given(
    idents=st.sets(st.integers(min_value=0, max_value=1023), min_size=1, max_size=40),
    caps=st.lists(st.integers(min_value=4, max_value=16), min_size=1, max_size=6),
    fanout=st.integers(min_value=2, max_value=8),
    placement=st.integers(min_value=0, max_value=5),
)
def test_children_are_runs_of_the_delivery_order(idents, caps, fanout, placement):
    """Every builder — ``region_split_tree`` (CAM-Chord, Chord),
    ``flood_tree`` (CAM-Koorde, Koorde) and ``select_tree`` (El-Ansary's
    broadcast, proximity) — from every source."""
    ordered = sorted(idents)
    capacities = cycle_capacities(caps, len(ordered), floor=4)
    snap = make_snapshot(10, ordered, capacity=capacities)
    systems = [*all_four(snap, fanout), *rule_systems(snap, fanout, placement)]
    for overlay, routine, _ in systems:
        for source in snap.nodes:
            assert_children_are_runs_of_order(routine(overlay, source))


def test_every_builder_stores_four_32_bit_columns():
    """16 bytes per member: ``region_split_tree`` (CAM-Chord, and Chord
    over its uniform fanout column), both ``flood_tree`` branches (the
    CAM-Koorde CSR with its 32-bit offsets, Koorde's run starts) and
    ``select_tree`` (El-Ansary's broadcast, proximity)."""
    idents = [0, 1, 2, 300, 301, 640, 900, 1021, 1022, 1023]
    snap = make_snapshot(10, idents, capacity=cycle_capacities([4, 9, 5], 10, floor=4))
    systems = [*all_four(snap, fanout=3), *rule_systems(snap, base=3, placement=1)]
    for overlay, routine, _ in systems:
        tree = routine(overlay, snap.nodes[3])
        columns = (tree.parent_index, tree.depth_array, tree.child_count, tree.order)
        assert [column.typecode for column in columns] == ["i"] * 4, routine
        assert tree.receiver_count == len(snap)
    assert kernel._flood_state(CamKoordeOverlay(snap)).offsets.typecode == "I"


@pytest.mark.parametrize("degree", [7, 8, 19])
def test_koorde_run_longer_than_the_ring(degree):
    """``degree >= n``: the pointer run laps the ring."""
    snap = make_snapshot(10, [3, 90, 200, 444, 600, 777, 1000], capacity=2)
    overlay = KoordeOverlay(snap, degree=degree)
    assert_every_source_matches(overlay, flood_tree, dict_trees.flood)


@pytest.mark.parametrize(
    "bits, count, capacity",
    [
        (6, 3, 40),  # 16 buckets of 4 identifiers, group strides of 2 and 1
        (6, 8, 40),
        (6, 40, 40),  # dense: one bucket per identifier
        (6, 5, 300),  # capacity > 2 N: every group run laps the ring
        (6, 64, 300),
        (14, 32, 12),  # the plane's sparse ring
        (14, 5_000, 12),  # the experiments' dense one
    ],
)
def test_cam_koorde_strided_runs_match_the_recorder(bits, count, capacity):
    capacities = [capacity - (index % 3) for index in range(count)]
    snap = build_snapshot(IdentifierSpace(bits), capacities, rng=Random(count))
    assert (snap.ring_index.shift == 0) == (4 * count >= 1 << bits)
    overlay = CamKoordeOverlay(snap)
    for index in {0, count // 2, count - 1}:
        source = snap.node_for_index(index)
        assert_same_tree(flood_tree(overlay, source), dict_trees.flood(overlay, source))


def probed_csr(snap) -> tuple[list[int], list[int]]:
    """The CAM-Koorde CSR from one ``RingIndex.probe`` per group element:
    predecessor and successor, then every Section 4.1 run in order."""
    bits, count, probe = snap.space.bits, len(snap), snap.ring_index.probe
    offsets, targets = [0], []
    for i, (x, capacity) in enumerate(zip(snap.identifiers, snap.capacities)):
        targets += [(i - 1) % count, (i + 1) % count]
        for by, members in cam_koorde_shift_groups(capacity, bits):
            for k in range(min(members, 1 << by)):
                targets.append(probe((k << (bits - by)) + (x >> by)))
        offsets.append(len(targets))
    return offsets, targets


def table_rule_ring(bits: int, count: int, capacities: list[int], pinned=()):
    """``count`` members of ``2**bits``: ``pinned`` plus a seeded draw,
    capacities cycled over the ring."""
    drawn = [x for x in Random(count).sample(range(1 << bits), count) if x not in pinned]
    idents = [*pinned, *drawn[: count - len(pinned)]]
    caps = [capacities[i % len(capacities)] for i in range(count)]
    return RingSnapshot.from_columns(IdentifierSpace(bits), idents, caps)


@pytest.mark.parametrize(
    "bits, count, capacities, pinned, side",
    [
        (10, 300, [6, 9, 13], (), "directory"),  # dense: shift == 0
        (10, 300, [4], (), "directory"),  # dense, 600 reads of 1,024 entries
        (14, 2_000, list(range(16, 41)), (), "table"),  # backup_install's shape
        (24, 2_000, list(range(16, 41)), (), "probe"),  # 2**24 entries, ~52k reads
        (12, 20, [4, 7, 12, 20], (), "probe"),  # the campaign's clusters
        (8, 32, [10], (), "table"),  # 8 reads a member: 256 == 2**8
        (8, 32, [9] + [10] * 31, (), "probe"),  # one read short of the table
        (8, 32, [10], (0, 255), "table"),  # members at both ends of the wrap
        (12, 20, [10], (0, 4095), "probe"),
        (6, 3, [40, 39, 38], (), "table"),  # strides narrower than a bucket
        (6, 8, [40, 39, 38], (), "table"),
        (6, 5, [300, 299, 298], (), "table"),  # every run laps the ring
    ],
    ids=[
        "dense", "dense-few-reads", "backup_install", "sparse-2^24", "campaign",
        "reads==size", "reads==size-1", "wrap-table", "wrap-probe",
        "narrow-n3", "narrow-n8", "lapping-n5",
    ],
)
def test_cam_koorde_successor_table_iff_no_larger_than_the_reads(
    monkeypatch, bits, count, capacities, pinned, side
):
    """A shift group is a slice of the successor table when the ring is
    dense or the table has no more entries than the reads; otherwise it
    is probed.  Every side fills the same CSR as one probe per element
    and books the same ``kernel_resolves`` (the reads, not the table's
    entries)."""
    snap = table_rule_ring(bits, count, capacities, pinned)
    tables = []
    real = kernel._successor_table
    monkeypatch.setattr(
        kernel, "_successor_table", lambda *args: tables.append(real(*args)) or tables[-1]
    )
    before = perf.snapshot()
    state = kernel._FloodState(CamKoordeOverlay(snap))
    resolves = perf.since(before).kernel_resolves
    offsets, targets = probed_csr(snap)
    assert list(state.offsets) == offsets
    assert list(state.targets) == targets
    assert resolves == len(targets) - 2 * count
    (table,) = tables
    taken = "probe" if table is None else "directory" if snap.ring_index.shift == 0 else "table"
    assert taken == side
    if table is not None:
        assert len(table) == 1 << bits
    if taken == "table":  # built: never more entries than the CSR it fills
        assert len(table) <= len(targets)


def test_spread_equals_the_reference_float_loop():
    """Every (fanout, sequence) the splitter can ask for: the cached
    tuple is the Section 3.4 running position, reversed."""
    for fanout in range(2, 65):
        for sequence in range(1, fanout):
            position = float(fanout)
            step = fanout / (fanout - sequence)
            expected = []
            for _ in range(fanout - sequence - 1):
                position -= step
                expected.append(math.ceil(position))
            spread = spare_sequences(fanout, sequence)
            assert list(spread) == expected[::-1]
            assert all(a < b for a, b in zip(spread, spread[1:]))
            assert not spread or 1 <= spread[0] and spread[-1] < fanout


@pytest.mark.parametrize("ident", [3503, 4000], ids=["between members", "past the last"])
def test_a_source_outside_the_group_is_rejected(ident):
    """The kernel used to take ``bisect_left`` on trust: the first case
    built a full tree rooted at the next member and labelled with the
    stranger's identifier, the second died with an ``IndexError``."""
    idents = [17, 900, 1500, 2222, 3000, 3502, 3761]
    snap = make_snapshot(12, idents, capacity=5)
    stranger = Node(ident=ident, capacity=5)
    routines = {
        "cam-chord": cam_chord_multicast,
        "chord": cam_chord_multicast,
        "cam-koorde": cam_koorde_multicast,
        "koorde": koorde_flood,
    }
    for descriptor in all_descriptors():
        overlay = descriptor.build_overlay(snap, uniform_fanout=4)
        before = perf.snapshot()
        with pytest.raises(KeyError, match=f"source {ident} is not a group member"):
            routines[descriptor.name](overlay, stranger)
        delta = perf.since(before)
        assert delta.kernel_resolves == delta.kernel_trees == 0


def test_verify_exactly_once_names_missing_and_extra_members():
    idents = [1, 50, 200, 400, 600, 800, 1000]
    snap = make_snapshot(10, idents, capacity=3)
    full = region_split_tree(CamChordOverlay(snap), snap.nodes[0])
    partial = FlatTree(
        snap,
        full.source_ident,
        full.parent_index,
        full.depth_array,
        full.child_count,
        full.order[:-1],
    )
    lost = snap.identifiers[full.order[-1]]
    for tree, members, message in (
        (full, {*idents, 7}, "1 members never received the message, e.g. [7]"),
        (full, set(idents[1:]), "1 non-members received the message, e.g. [1]"),
        (partial, set(idents), f"1 members never received the message, e.g. [{lost}]"),
        (partial, set(idents) - {lost, 50}, "1 non-members received the message, e.g. [50]"),
    ):
        with pytest.raises(AssertionError, match=re.escape(message)):
            tree.verify_exactly_once(members)
    partial.verify_exactly_once(set(idents) - {lost})


def test_verify_exactly_once_checks_membership_on_full_coverage():
    """The full-coverage shortcut (equal sizes, members a superset of
    the rows) must not pass a member set with one member swapped out."""
    idents = [1, 50, 200, 400, 600, 800, 1000]
    snap = make_snapshot(10, idents, capacity=3)
    full = region_split_tree(CamChordOverlay(snap), snap.nodes[0])
    full.verify_exactly_once(set(idents))
    swapped = set(idents) - {400} | {7}
    for members, message in (
        (swapped, "1 members never received the message, e.g. [7]"),
        (set(idents) - {400}, "1 non-members received the message, e.g. [400]"),
    ):
        with pytest.raises(AssertionError, match=re.escape(message)):
            full.verify_exactly_once(members)
