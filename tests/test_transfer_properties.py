"""Property tests for the timed transfer model."""

from __future__ import annotations

from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.throughput import sustainable_throughput
from repro.multicast.cam_chord import cam_chord_multicast
from repro.overlay.cam_chord import CamChordOverlay
from repro.sim.transfer import simulate_tree_transfer
from tests.conftest import make_snapshot


def random_tree(seed: int, count: int):
    rng = Random(seed)
    idents = sorted(rng.sample(range(1 << 11), count))
    caps = [rng.randint(2, 8) for _ in idents]
    bws = [rng.uniform(200, 1200) for _ in idents]
    snap = make_snapshot(11, idents, capacity=caps, bandwidth=bws)
    overlay = CamChordOverlay(snap)
    tree = cam_chord_multicast(overlay, snap.nodes[0])
    return tree, snap


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1000),
    count=st.integers(min_value=2, max_value=60),
    kbits=st.floats(min_value=1.0, max_value=1e5),
)
def test_children_finish_after_parents(seed, count, kbits):
    tree, snap = random_tree(seed, count)
    result = simulate_tree_transfer(tree, snap, kbits, packet_count=8)
    for child, parent in tree.parent.items():
        if parent is not None:
            assert result.completion_time[child] > result.completion_time[parent]
            assert result.first_packet_time[child] > result.first_packet_time[parent]


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1000),
    count=st.integers(min_value=2, max_value=40),
)
def test_more_packets_never_slower(seed, count):
    """Finer pipelining can only reduce (or keep) every completion time."""
    tree, snap = random_tree(seed, count)
    coarse = simulate_tree_transfer(tree, snap, 1000.0, packet_count=1)
    fine = simulate_tree_transfer(tree, snap, 1000.0, packet_count=32)
    for ident in tree.parent:
        assert fine.completion_time[ident] <= coarse.completion_time[ident] + 1e-9


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1000),
    count=st.integers(min_value=2, max_value=40),
    kbits=st.floats(min_value=10.0, max_value=1e5),
)
def test_measured_rate_bounded_by_analytic(seed, count, kbits):
    tree, snap = random_tree(seed, count)
    result = simulate_tree_transfer(tree, snap, kbits, packet_count=16)
    assert result.measured_throughput_kbps <= (
        sustainable_throughput(tree, snap) * (1 + 1e-9)
    )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1000),
    count=st.integers(min_value=2, max_value=30),
)
def test_completion_scales_linearly_in_message_size(seed, count):
    """Doubling the message at most doubles every completion time (and
    at least increases it): the pipeline has no superlinear effects."""
    tree, snap = random_tree(seed, count)
    small = simulate_tree_transfer(tree, snap, 500.0, packet_count=8)
    large = simulate_tree_transfer(tree, snap, 1000.0, packet_count=8)
    for ident in tree.parent:
        if ident == tree.source_ident:
            continue
        assert small.completion_time[ident] < large.completion_time[ident]
        assert large.completion_time[ident] <= 2 * small.completion_time[ident] + 1e-9
