"""Property tests for the timed transfer model."""

from __future__ import annotations

from random import Random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics.throughput import sustainable_throughput
from repro.multicast.cam_chord import cam_chord_multicast
from repro.overlay.cam_chord import CamChordOverlay
from repro.sim.transfer import UplinkBudget, simulate_tree_transfer
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


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # host
            # how far the clock moves before the run: 0 keeps ``now``
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0)),
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.0, max_value=3.0),
                st.floats(min_value=1e-18, max_value=1e-15),  # vanishes
            ),
            st.integers(min_value=1, max_value=7),  # slots in the run
        ),
        min_size=1,
        max_size=30,
    )
)
# a duration that vanishes next to ``now``: no slot of the run defers
@example([(0, 1.0, 1e-17, 3)])
# busy uplink, then idle again, then a zero-length run
@example([(1, 0.0, 2.0, 2), (1, 1.0, 0.5, 3), (1, 4.5, 0.0, 2)])
# six additions of 0.1 are 0.6, six times 0.1 is 0.6000000000000001
@example([(2, 0.0, 0.1, 6)])
def test_run_reservation_equals_single_reservations(steps):
    """``reserve_run(host, now, d, k)`` is k ``reserve(host, now, d)``
    calls: every start and end the same float, and the same ledger —
    judged against the one-slot ledger as it was before runs existed.
    A run returns its first start and its last end; the slot ends in
    between are what a caller rebuilds by adding ``d`` once per slot,
    as the service plane's forwarding does."""
    free_at: dict[int, float] = {}
    deferrals = [0] * 4
    reservations = [0] * 4

    def reference_reserve(host, now, duration):
        start = max(now, free_at.get(host, 0.0))
        deferrals[host] += start > now
        free_at[host] = done = start + duration
        reservations[host] += 1
        return start, done

    runs, singles = UplinkBudget(), UplinkBudget()
    now = 0.0
    for host, advance, duration, count in steps:
        now += advance
        slots = [reference_reserve(host, now, duration) for _ in range(count)]
        start, end, deferred = runs.reserve_run(host, now, duration, count)
        dones = []
        done = start
        for _ in range(count):
            done += duration
            dones.append(done)
        assert dones[-1] == end
        # a slot starts where the one before it ended
        assert list(zip([start, *dones], dones)) == slots
        assert deferred == sum(begin > now for begin, _ in slots)
        assert slots == [
            singles.reserve(host, now, duration) for _ in range(count)
        ]
        for budget in (runs, singles):
            for key in range(4):
                assert budget.free_at(key) == free_at.get(key, 0.0)
                assert budget.deferrals(key) == deferrals[key]
                assert budget.reservations(key) == reservations[key]
            assert budget.deferrals() == sum(deferrals)
            assert budget.reservations() == sum(reservations)
