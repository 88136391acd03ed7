"""Tests for the membership snapshot (resolution, neighbors, churn ops)."""

from __future__ import annotations

import tracemalloc
from array import array
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.idspace.ring import IdentifierSpace
from repro.overlay.base import Node, RingSnapshot, build_snapshot, sample_identifiers
from tests.conftest import make_snapshot


class TestNode:
    def test_validation(self):
        with pytest.raises(ValueError):
            Node(ident=-1, capacity=3)
        with pytest.raises(ValueError):
            Node(ident=0, capacity=0)
        with pytest.raises(ValueError):
            Node(ident=0, capacity=1, bandwidth_kbps=-5)

    def test_repr_compact(self):
        assert repr(Node(ident=7, capacity=3)) == "Node(7, c=3)"


class TestRingSnapshot:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RingSnapshot(IdentifierSpace(5), [])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_snapshot(5, [3, 3])

    def test_rejects_out_of_space(self):
        with pytest.raises(ValueError, match="outside"):
            make_snapshot(5, [40])

    def test_resolution_basics(self, figure2_snapshot):
        snap = figure2_snapshot
        # x-hat: the node itself when it exists ...
        assert snap.resolve(4).ident == 4
        # ... otherwise the successor of the identifier.
        assert snap.resolve(5).ident == 8
        assert snap.resolve(27).ident == 29
        # wraparound past the top of the space
        assert snap.resolve(30).ident == 0
        assert snap.resolve(31).ident == 0

    def test_successor_predecessor(self, figure2_snapshot):
        snap = figure2_snapshot
        node0 = snap.node_at(0)
        assert snap.successor(node0).ident == 4
        assert snap.predecessor(node0).ident == 29
        node29 = snap.node_at(29)
        assert snap.successor(node29).ident == 0
        assert snap.predecessor(node29).ident == 26

    def test_single_node_ring(self):
        snap = make_snapshot(5, [7])
        node = snap.node_at(7)
        assert snap.successor(node).ident == 7
        assert snap.predecessor(node).ident == 7
        assert snap.resolve(0).ident == 7

    def test_node_at_missing(self, figure2_snapshot):
        with pytest.raises(KeyError):
            figure2_snapshot.node_at(5)

    def test_contains_and_iter(self, figure2_snapshot):
        assert figure2_snapshot.index_of(13) is not None
        assert figure2_snapshot.index_of(14) is None
        with pytest.raises(TypeError):
            13 in figure2_snapshot  # membership is index_of
        assert len(list(figure2_snapshot)) == len(figure2_snapshot) == 8

    def test_random_node_uniformish(self, figure2_snapshot):
        rng = Random(0)
        picks = {figure2_snapshot.random_node(rng).ident for _ in range(200)}
        assert picks == {0, 4, 8, 13, 18, 21, 26, 29}


class TestBuildSnapshot:
    def test_sizes_and_determinism(self):
        space = IdentifierSpace(12)
        snap1 = build_snapshot(space, [3] * 100, rng=Random(5))
        snap2 = build_snapshot(space, [3] * 100, rng=Random(5))
        assert [n.ident for n in snap1] == [n.ident for n in snap2]
        assert len(snap1) == 100

    def test_bandwidths_attached(self):
        space = IdentifierSpace(12)
        snap = build_snapshot(space, [3, 4], bandwidths=[500.0, 600.0])
        assert sorted(n.bandwidth_kbps for n in snap) == [500.0, 600.0]

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            build_snapshot(IdentifierSpace(12), [3, 4], bandwidths=[1.0])

    def test_dense_ring(self):
        space = IdentifierSpace(5)
        snap = build_snapshot(space, [2] * 32, rng=Random(0))
        assert len(snap) == 32
        assert sorted(n.ident for n in snap) == list(range(32))

    def test_overfull_rejected(self):
        with pytest.raises(ValueError):
            build_snapshot(IdentifierSpace(3), [2] * 9)


@settings(max_examples=50)
@given(st.sets(st.integers(min_value=0, max_value=255), min_size=1, max_size=40))
def test_resolve_matches_brute_force(idents):
    snap = make_snapshot(8, sorted(idents), capacity=4)
    ordered = sorted(idents)
    for key in range(256):
        expected = next((i for i in ordered if i >= key), ordered[0])
        assert snap.resolve(key).ident == expected


@settings(max_examples=50)
@given(st.sets(st.integers(min_value=0, max_value=255), min_size=2, max_size=40))
def test_successor_predecessor_inverse(idents):
    snap = make_snapshot(8, sorted(idents), capacity=4)
    for node in snap:
        assert snap.predecessor(snap.successor(node)).ident == node.ident
        assert snap.successor(snap.predecessor(node)).ident == node.ident


# -- one representation: every way in answers every query the same ----------


def _row(node: Node) -> tuple:
    return (node.ident, node.capacity, node.bandwidth_kbps, node.name)


def _answers(snap: RingSnapshot, segments) -> dict:
    """Everything a snapshot can be asked, as plain comparable values."""
    size = snap.space.size
    members = list(snap.identifiers)

    return {
        "len": len(snap),
        "iter": [_row(node) for node in snap],
        "nodes": [_row(node) for node in snap.nodes],
        "columns": (
            list(snap.identifiers), list(snap.capacities), list(snap.bandwidths)
        ),
        "index_of": [snap.index_of(ident) for ident in range(size)],
        "node_at": [_row(snap.node_at(ident)) for ident in members],
        "resolve": [_row(snap.resolve(probe)) for probe in range(-size, 2 * size)],
        "resolve_index": [snap.resolve_index(p) for p in range(-size, 2 * size)],
        "successor": [_row(snap.successor(node)) for node in snap],
        "predecessor": [_row(snap.predecessor(node)) for node in snap],
        "segments": [
            [_row(node) for node in snap.nodes_in_segment(x, y, limit)]
            for x, y, limit in segments
        ],
    }


@settings(max_examples=60, deadline=None)
@given(
    bits=st.integers(3, 7),
    with_bandwidths=st.booleans(),
    with_names=st.booleans(),
    data=st.data(),
)
def test_every_entry_point_answers_identically(
    bits, with_bandwidths, with_names, data
):
    space = IdentifierSpace(bits)
    point = st.integers(0, space.size - 1)
    idents = data.draw(st.lists(point, unique=True, min_size=1, max_size=20))
    count = len(idents)
    fixed = {"min_size": count, "max_size": count}
    capacities = data.draw(st.lists(st.integers(1, 9), **fixed))
    bandwidths = (
        data.draw(st.lists(st.floats(0.0, 1000.0), **fixed))
        if with_bandwidths
        else None
    )
    names = [f"host{i}" for i in range(count)] if with_names else None
    segments = data.draw(
        st.lists(
            st.tuples(point, point, st.one_of(st.none(), st.integers(0, 5))),
            max_size=6,
        )
    )

    def ask(snap: RingSnapshot) -> dict:
        return _answers(snap, segments)

    from_nodes = RingSnapshot(
        space,
        [
            Node(
                idents[i],
                capacities[i],
                bandwidths[i] if bandwidths else 0.0,
                names[i] if names else "",
            )
            for i in range(count)
        ],
    )
    from_columns = RingSnapshot.from_columns(
        space, idents, capacities, bandwidths, names
    )
    expected = ask(from_nodes)
    assert ask(from_columns) == expected


# -- the ring index: one probe resolves --------------------------------------


@st.composite
def rings(draw) -> tuple[int, list[int]]:
    """(bits, member identifiers) over the shapes the index must get
    right: a lone member, two, members on both sides of the wrap, a
    ring too dense for 4 n buckets, the plane's 32-of-2**14, one
    crowded bucket, and spaces up to the identifier column's 64 bits."""
    bits = draw(st.sampled_from([3, 6, 14, 48, 64]))
    shape = draw(st.sampled_from(["lone", "pair", "wrap", "dense", "plane", "crowd"]))
    if shape == "dense":  # 4 n >= N: the directory is capped at the space
        bits = min(bits, 6)
    elif shape == "plane":
        bits = 14
    size = 1 << bits
    point = st.integers(0, size - 1)

    def members(low: int, high: int) -> list[int]:
        return draw(st.lists(point, min_size=low, max_size=high, unique=True))

    if shape == "lone":
        return bits, members(1, 1)
    if shape == "pair":
        return bits, members(2, 2)
    if shape == "wrap":
        return bits, sorted({0, size - 1, *members(0, 6)})
    if shape == "dense":
        return bits, members(size // 4, size)
    if shape == "plane":
        return bits, members(32, 32)
    # every member within 40 identifiers of one point: probes advance
    base = draw(point)
    steps = draw(st.sets(st.integers(0, 40), min_size=2, max_size=12))
    return bits, sorted({(base + step) % size for step in steps})


def check_ring_index(snap: RingSnapshot, extra_probes: list[int]) -> None:
    size = snap.space.size
    members = list(snap.identifiers)
    index = snap.ring_index
    assert index is snap.ring_index  # built once, cached like .nodes
    probes = {0, size - 1, *extra_probes}
    for ident in members:
        probes.update((ident, (ident - 1) % size, (ident + 1) % size))
    for probe in probes:
        assert index.probe(probe) == snap.resolve_index(probe)


@settings(max_examples=80, deadline=None)
@given(ring=rings(), data=st.data())
def test_ring_index_probe_matches_the_definition(ring, data):
    bits, idents = ring
    space = IdentifierSpace(bits)
    extra = data.draw(st.lists(st.integers(0, space.size - 1), max_size=8))
    snap = RingSnapshot.from_columns(space, idents, [4] * len(idents))
    check_ring_index(snap, extra)


def test_ring_index_is_linear_in_members():
    """32 members in a 2**48 space: 128 buckets, not 2**48 slots."""
    snap = build_snapshot(IdentifierSpace(48), [4] * 32, rng=Random(3))
    tracemalloc.start()
    try:
        index = snap.ring_index
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert len(index.directory) == 4 * 32 + 1 and index.shift == 48 - 7


#: (identifiers, capacities, bandwidths) that no constructor may accept
REJECTED = {
    "empty": ([], [], []),
    "duplicate identifier": ([3, 9, 3], [2, 2, 2], [1.0, 1.0, 1.0]),
    "identifier outside the space": ([3, 32], [2, 2], [1.0, 1.0]),
    "negative identifier": ([-1, 3], [2, 2], [1.0, 1.0]),
    "capacity below one": ([3, 9], [2, 0], [1.0, 1.0]),
    "negative bandwidth": ([3, 9], [2, 2], [1.0, -0.5]),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_both_constructors_reject(case):
    space = IdentifierSpace(5)
    idents, capacities, bandwidths = REJECTED[case]
    with pytest.raises(ValueError):
        RingSnapshot(space, [Node(*row) for row in zip(idents, capacities, bandwidths)])
    with pytest.raises(ValueError):
        RingSnapshot.from_columns(space, idents, capacities, bandwidths)
    for ordered in (sorted(idents), memoryview(array("q", sorted(idents)))):
        with pytest.raises(ValueError):  # the in-ring-order path checks the same
            RingSnapshot.from_columns(space, ordered, capacities, bandwidths)


def test_from_columns_copies_a_memoryview_into_its_own_array():
    """One column type: a window onto somebody else's memory comes out
    as the snapshot's own flat ``array``, so the owner may change or
    release the buffer afterwards."""
    backing = array("Q", [3, 9, 20])
    window = memoryview(backing)
    snap = RingSnapshot.from_columns(
        IdentifierSpace(5),
        window,
        memoryview(array("q", [2, 4, 6])),
        memoryview(array("d", [1.0, 2.0, 3.0])),
    )
    for column, typecode in zip(
        (snap.identifiers, snap.capacities, snap.bandwidths), "Qqd"
    ):
        assert type(column) is array and column.typecode == typecode
    backing[0] = 4
    window.release()
    assert list(snap.identifiers) == [3, 9, 20]
    assert snap.ring_index.probe(4) == 1


@pytest.mark.parametrize("column", ["capacities", "bandwidths", "names"])
def test_from_columns_rejects_length_mismatch(column):
    columns = {
        "idents": [3, 9],
        "capacities": [2, 2],
        "bandwidths": [1.0, 1.0],
        "names": ["a", "b"],
    }
    columns[column] = columns[column][:1]
    with pytest.raises(ValueError, match="equal length"):
        RingSnapshot.from_columns(IdentifierSpace(5), **columns)


def test_with_capacities_shares_every_column_but_the_capacities():
    snap = RingSnapshot.from_columns(
        IdentifierSpace(5), [20, 3, 9], [2, 4, 6], [3.0, 1.0, 2.0], ["c", "a", "b"]
    )
    derived = snap.with_capacities([7, 8, 9])
    assert derived is not snap
    for column in ("space", "identifiers", "bandwidths", "names", "ring_index"):
        assert getattr(derived, column) is getattr(snap, column), column
    assert type(derived.capacities) is array and derived.capacities.typecode == "q"
    assert list(derived.capacities) == [7, 8, 9]
    assert list(snap.capacities) == [4, 6, 2]
    assert derived.node_at(9) == Node(9, 8, 2.0, "b")


@pytest.mark.parametrize(
    "capacities, message",
    [([2, 2], "equal length"), ([2, 2, 2, 2], "equal length"), ([2, 0, 2], ">= 1")],
    ids=["short", "long", "below one"],
)
def test_with_capacities_rejects_what_the_constructors_reject(capacities, message):
    snap = RingSnapshot.from_columns(IdentifierSpace(5), [3, 9, 20], [2, 4, 6])
    with pytest.raises(ValueError, match=message):
        snap.with_capacities(capacities)


# -- the identifier draw: batched words equal the randrange loop --------------


def randrange_draw(count: int, size: int, rng: Random) -> list[int]:
    """The sparse draw as a plain loop: ``randrange`` until ``count``
    distinct identifiers are taken."""
    taken: set[int] = set()
    while len(taken) < count:
        taken.add(rng.randrange(size))
    return sorted(taken)


def assert_same_draw(count: int, size: int, make_rng) -> None:
    batched, looped = make_rng(), make_rng()
    assert sample_identifiers(count, size, batched) == randrange_draw(count, size, looped)
    # the callers keep drawing from the same rng afterwards
    assert batched.getstate() == looped.getstate()
    assert batched.random() == looped.random()


@settings(max_examples=120, deadline=None)
@given(
    bits=st.integers(min_value=3, max_value=31),
    count=st.integers(min_value=1, max_value=400),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_batched_sparse_draw_equals_the_randrange_loop(bits, count, seed):
    size = 1 << bits
    count = min(count, (size - 1) // 4)  # the sparse path: count * 4 < size
    if count:
        assert_same_draw(count, size, lambda: Random(seed))


@given(size=st.integers(min_value=5, max_value=2**32), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_batched_draw_at_sizes_between_powers_of_two(size, seed):
    # rejection matters most just above a power of two
    assert_same_draw(min(size // 5, 300) or 1, size, lambda: Random(seed))


def test_single_identifier_draw():
    assert_same_draw(1, 1 << 19, lambda: Random(0))
    assert sample_identifiers(1, 1 << 19, Random(0)) == [Random(0).randrange(1 << 19)]


def test_dense_draw_is_the_shuffle_sample():
    size = 64
    drawn = sample_identifiers(20, size, Random(4))
    assert drawn == Random(4).sample(range(size), 20)
    assert len(set(drawn)) == 20


def test_a_random_subclass_takes_the_randrange_loop():
    class Counting(Random):
        def __init__(self, seed):
            super().__init__(seed)
            self.calls = 0

        def randrange(self, *args):
            self.calls += 1
            return super().randrange(*args)

    assert_same_draw(50, 1 << 16, lambda: Counting(9))
    counting = Counting(9)
    sample_identifiers(50, 1 << 16, counting)
    assert counting.calls >= 50


def test_a_space_wider_than_32_bits_takes_the_randrange_loop():
    assert_same_draw(100, 1 << 40, lambda: Random(2))
