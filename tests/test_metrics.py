"""Tests for tree statistics, throughput and load metrics."""

from __future__ import annotations

from collections import defaultdict, deque
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.load import flooding_load, single_tree_load
from repro.metrics.throughput import (
    allocated_link_bandwidths,
    average_children_per_internal_node,
    sustainable_throughput,
)
from repro.metrics.tree_stats import summarize_tree
from repro.multicast.kernel import DuplicateDeliveryError
from tests.conftest import make_snapshot
from tests.dict_trees import derived, hand_tree


def ring(*idents: int, bandwidth: float | list[float] = 0.0):
    return make_snapshot(8, sorted(idents), capacity=4, bandwidth=bandwidth)


def star_tree(center: int, leaves: list[int], snap=None):
    snap = snap if snap is not None else ring(center, *leaves)
    return hand_tree(snap, center, [(center, leaf) for leaf in leaves])


def chain_tree(idents: list[int]):
    return hand_tree(ring(*idents), idents[0], list(zip(idents, idents[1:])))


def single_node(ident: int, bandwidth: float = 0.0):
    return hand_tree(ring(ident, bandwidth=bandwidth), ident)


class TestMulticastResult:
    """The tree a multicast returns: the FlatTree vocabulary on small
    hand-drawn trees."""

    def test_source_recorded_at_depth_zero(self):
        result = single_node(5)
        assert result.depth[5] == 0
        assert result.parent[5] is None
        assert result.receiver_count == 1

    def test_duplicate_delivery_raises(self):
        with pytest.raises(DuplicateDeliveryError, match="node 1 received the message"):
            hand_tree(ring(0, 1, 2), 0, [(0, 1), (0, 2), (2, 1)])

    def test_path_to_source(self):
        result = chain_tree([1, 2, 3, 4])
        assert result.path_to_source(4) == [4, 3, 2, 1]
        assert result.path_to_source(1) == [1]
        with pytest.raises(KeyError):
            result.path_to_source(9)

    def test_histogram_and_averages(self):
        result = chain_tree([1, 2, 3])
        assert result.path_length_histogram() == {0: 1, 1: 1, 2: 1}
        assert result.average_path_length() == 1.5
        assert result.max_path_length() == 2

    def test_average_path_single_node(self):
        assert single_node(3).average_path_length() == 0.0

    def test_verify_exactly_once_missing(self):
        result = star_tree(0, [1])
        with pytest.raises(AssertionError, match="never received"):
            result.verify_exactly_once({0, 1, 2})

    def test_verify_exactly_once_extra(self):
        result = star_tree(0, [1, 9])
        with pytest.raises(AssertionError, match="non-members"):
            result.verify_exactly_once({0, 1})


class TestTreeStats:
    def test_star(self):
        stats = summarize_tree(star_tree(0, [1, 2, 3]))
        assert stats.receivers == 4
        assert stats.internal_count == 1
        assert stats.leaf_count == 3
        assert stats.average_children == 3
        assert stats.max_children == 3
        assert stats.max_path_length == 1
        assert stats.histogram == {0: 1, 1: 3}
        assert stats.coverage_complete(4)
        assert not stats.coverage_complete(5)

    def test_chain(self):
        stats = summarize_tree(chain_tree([0, 1, 2, 3]))
        assert stats.internal_count == 3
        assert stats.average_children == 1
        assert stats.average_path_length == 2.0

    def test_single_node(self):
        stats = summarize_tree(single_node(0))
        assert stats.internal_count == 0
        assert stats.average_children == 0.0
        assert stats.max_children == 0


class TestThroughput:
    def test_allocations(self):
        snap = ring(0, 10, 20, 30, bandwidth=[800.0, 600.0, 500.0, 400.0])
        tree = hand_tree(snap, 0, [(0, 10), (0, 20), (10, 30)])
        allocations = allocated_link_bandwidths(tree, snap)
        assert allocations == {0: 400.0, 10: 600.0}
        # the C-level bottleneck equals the per-link reference
        assert sustainable_throughput(tree, snap) == min(allocations.values()) == 400.0

    def test_missing_bandwidth_rejected(self):
        snap = ring(0, 10)
        tree = star_tree(0, [10], snap)
        with pytest.raises(ValueError, match="no bandwidth"):
            sustainable_throughput(tree, snap)

    def test_single_node_session(self):
        tree = single_node(0, bandwidth=750.0)
        assert sustainable_throughput(tree, tree.snapshot) == 750.0

    def test_average_children(self):
        assert average_children_per_internal_node(star_tree(0, [1, 2])) == 2
        assert average_children_per_internal_node(chain_tree([0, 1, 2])) == 1
        assert average_children_per_internal_node(single_node(0)) == 0.0


def partial_tree(idents: set[int], seed: int):
    """A random tree over some members of ``ring(*idents)``, never all
    of them, and its parent / depth dicts built by a plain BFS."""
    rng = Random(seed)
    bandwidths = [rng.choice((250.0, 400.0, 625.0, 1000.0)) for _ in idents]
    snap = ring(*idents, bandwidth=bandwidths)
    members = list(snap.identifiers)
    rng.shuffle(members)
    reached = members[: rng.randint(1, len(members) - 1)]
    edges = [(rng.choice(reached[:k]), child) for k, child in enumerate(reached[1:], 1)]
    kids = defaultdict(list)
    for up, child in edges:
        kids[up].append(child)
    parent, depth = {reached[0]: None}, {reached[0]: 0}
    queue = deque(reached[:1])
    while queue:
        node = queue.popleft()
        for child in kids[node]:
            parent[child] = node
            depth[child] = depth[node] + 1
            queue.append(child)
    return hand_tree(snap, reached[0], edges), parent, depth


class TestPartialCoverage:
    """The array passes skip the unreached (-1) rows exactly as the
    dict trees, which never hold them, do."""

    @settings(max_examples=80, deadline=None)
    @given(
        idents=st.sets(st.integers(min_value=0, max_value=255), min_size=2, max_size=40),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_array_metrics_equal_the_dict_oracle(self, idents, seed):
        tree, parent, depth = partial_tree(idents, seed)
        assert tree.depth_array.count(-1) == len(idents) - len(parent)
        assert tree.depth_array.count(-1) > 0
        expected = derived(parent, depth)
        histogram = tree.path_length_histogram()
        assert histogram == expected["histogram"]
        assert list(histogram) == list(expected["histogram"])  # ascending hops
        assert tree.average_path_length() == expected["mean"]
        assert tree.max_path_length() == expected["max"]
        assert summarize_tree(tree) == expected["stats"]
        bandwidths = dict(zip(tree.snapshot.identifiers, tree.snapshot.bandwidths))
        children = expected["children"]
        bottleneck = min(
            (bandwidths[ident] / count for ident, count in children.items() if count),
            default=bandwidths[tree.source_ident],
        )
        assert sustainable_throughput(tree, tree.snapshot) == bottleneck

    def test_the_first_forwarder_without_bandwidth_is_named(self):
        # rows 0 and 20 both forward with no bandwidth; 20 is reached first
        snap = ring(0, 10, 20, 30, 40, bandwidth=[0.0, 500.0, 0.0, 500.0, 500.0])
        tree = hand_tree(snap, 30, [(30, 20), (30, 0), (20, 10), (0, 40)])
        with pytest.raises(ValueError, match="node 20 has no bandwidth"):
            sustainable_throughput(tree, snap)
        # a leaf without bandwidth forwards nothing and is no bottleneck
        leafy = hand_tree(snap, 30, [(30, 10), (30, 0)])
        assert sustainable_throughput(leafy, snap) == 250.0


class TestForwardingLoad:
    def test_flooding_aggregates_across_sources(self):
        snap = ring(0, 1, 2)
        trees = [star_tree(0, [1, 2], snap), star_tree(1, [0, 2], snap)]
        load = flooding_load(trees, message_kbits=2.0)
        assert load.per_node[0] == 4.0  # 2 children in tree 1
        assert load.per_node[1] == 4.0
        assert load.per_node[2] == 0.0
        assert load.total == 8.0
        assert load.idle_fraction == pytest.approx(1 / 3)

    def test_single_tree_concentrates(self):
        tree = star_tree(0, [1, 2, 3])
        load = single_tree_load(tree, message_count=10, message_kbits=1.0)
        assert load.per_node[0] == 30.0
        assert load.per_node[1] == 0.0
        assert load.idle_fraction == 0.75
        assert load.max_over_mean == 4.0

    def test_single_tree_validation(self):
        with pytest.raises(ValueError):
            single_tree_load(star_tree(0, [1]), message_count=-1)

    def test_empty_load(self):
        load = flooding_load([], message_kbits=1.0)
        assert load.mean == 0.0
        assert load.max_over_mean == 0.0
        assert load.coefficient_of_variation == 0.0
        assert load.idle_fraction == 0.0

    def test_coefficient_of_variation_uniform_is_zero(self):
        trees = [chain_tree([0, 1, 2, 3])]
        load = flooding_load(trees)
        internal_only = {k: v for k, v in load.per_node.items() if v > 0}
        assert len(set(internal_only.values())) == 1
