"""Tests for the timed packet-level transfer simulation."""

from __future__ import annotations

from random import Random

import pytest

from repro.metrics.throughput import sustainable_throughput
from repro.sim.transfer import simulate_tree_transfer
from tests.conftest import make_snapshot
from tests.dict_trees import hand_tree


class TestSingleHop:
    def test_one_child_times(self):
        snap = make_snapshot(8, [0, 10], capacity=4, bandwidth=[100.0, 100.0])
        tree = hand_tree(snap, 0, [(0, 10)])
        result = simulate_tree_transfer(tree, snap, message_kbits=100, packet_count=4)
        # full uplink to one child: 100 kbits at 100 kbps = 1 s total
        assert result.completion_time[10] == pytest.approx(1.0)
        # first packet (25 kbits) lands after 0.25 s
        assert result.first_packet_time[10] == pytest.approx(0.25)
        assert result.measured_throughput_kbps == pytest.approx(100.0)

    def test_two_children_split_uplink(self):
        snap = make_snapshot(
            8, [0, 10, 20], capacity=4, bandwidth=[100.0, 100.0, 100.0]
        )
        tree = hand_tree(snap, 0, [(0, 10), (0, 20)])
        result = simulate_tree_transfer(tree, snap, message_kbits=100, packet_count=4)
        # each child gets a 50-kbps share: 2 s for 100 kbits
        assert result.completion_time[10] == pytest.approx(2.0)
        assert result.completion_time[20] == pytest.approx(2.0)
        assert result.measured_throughput_kbps == pytest.approx(50.0)


class TestPipelining:
    def test_relay_overlaps_reception(self):
        """A relay starts forwarding after ONE packet, not the whole
        message: total time is far below sum-of-hops."""
        snap = make_snapshot(
            8, [0, 10, 30], capacity=4, bandwidth=[100.0, 100.0, 100.0]
        )
        tree = hand_tree(snap, 0, [(0, 10), (10, 30)])
        many = simulate_tree_transfer(tree, snap, message_kbits=100, packet_count=100)
        # store-and-forward of the full message would take 2.0 s; with
        # 100-packet pipelining the second hop trails by one packet slot
        assert many.completion_time[30] == pytest.approx(1.0 + 1.0 / 100, rel=1e-6)
        single = simulate_tree_transfer(tree, snap, message_kbits=100, packet_count=1)
        assert single.completion_time[30] == pytest.approx(2.0)

    def test_slow_relay_throttles_subtree(self):
        snap = make_snapshot(
            8, [0, 10, 30], capacity=4, bandwidth=[1000.0, 50.0, 1000.0]
        )
        tree = hand_tree(snap, 0, [(0, 10), (10, 30)])
        result = simulate_tree_transfer(tree, snap, message_kbits=100, packet_count=50)
        # node 30 receives at node 10's 50 kbps, not the source's 1000
        assert result.member_throughput_kbps(30) == pytest.approx(50.0, rel=0.05)

    def test_latency_adds_to_startup_not_rate(self):
        snap = make_snapshot(8, [0, 10], capacity=4, bandwidth=[100.0, 100.0])
        tree = hand_tree(snap, 0, [(0, 10)])
        with_lat = simulate_tree_transfer(
            tree, snap, message_kbits=100, packet_count=10,
            hop_latency=lambda a, b: 0.5,
        )
        without = simulate_tree_transfer(
            tree, snap, message_kbits=100, packet_count=10
        )
        assert with_lat.completion_time[10] == pytest.approx(
            without.completion_time[10] + 0.5
        )


class TestAnalyticAgreement:
    def test_long_message_converges_to_bottleneck(self):
        """The headline check: measured rate -> min B_x/d_x as the
        message grows (the Section 6.1 model is the fluid limit)."""
        from repro.multicast.cam_chord import cam_chord_multicast
        from repro.overlay.cam_chord import CamChordOverlay

        rng = Random(5)
        idents = sorted(rng.sample(range(1 << 12), 300))
        caps = [rng.randint(4, 10) for _ in idents]
        bws = [c * 100.0 + rng.uniform(0, 99) for c in caps]
        snap = make_snapshot(12, idents, capacity=caps, bandwidth=bws)
        overlay = CamChordOverlay(snap)
        tree = cam_chord_multicast(overlay, snap.nodes[0])

        analytic = sustainable_throughput(tree, snap)
        long_result = simulate_tree_transfer(
            tree, snap, message_kbits=50_000, packet_count=64
        )
        assert long_result.measured_throughput_kbps == pytest.approx(
            analytic, rel=0.15
        )
        # short message: propagation dominates, rate well below analytic
        short_result = simulate_tree_transfer(
            tree, snap, message_kbits=10, packet_count=4
        )
        assert short_result.measured_throughput_kbps < analytic

    def test_measured_never_beats_analytic(self):
        from repro.multicast.cam_chord import cam_chord_multicast
        from repro.overlay.cam_chord import CamChordOverlay

        rng = Random(6)
        idents = sorted(rng.sample(range(1 << 12), 100))
        caps = [rng.randint(2, 8) for _ in idents]
        bws = [rng.uniform(400, 1000) for _ in idents]
        snap = make_snapshot(12, idents, capacity=caps, bandwidth=bws)
        overlay = CamChordOverlay(snap)
        for index in (0, 10, 50):
            tree = cam_chord_multicast(overlay, snap.nodes[index])
            result = simulate_tree_transfer(
                tree, snap, message_kbits=20_000, packet_count=32
            )
            assert (
                result.measured_throughput_kbps
                <= sustainable_throughput(tree, snap) * 1.0001
            )


class TestValidation:
    def test_bad_inputs(self):
        snap = make_snapshot(8, [0], capacity=4, bandwidth=100.0)
        tree = hand_tree(snap, 0)
        for size in (0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="message size"):
                simulate_tree_transfer(tree, snap, message_kbits=size)
        with pytest.raises(ValueError):
            simulate_tree_transfer(tree, snap, message_kbits=10, packet_count=0)

    def test_missing_bandwidth_rejected(self):
        snap = make_snapshot(8, [0, 10, 20, 30], capacity=4)  # no bandwidths
        tree = hand_tree(snap, 0, [(0, 10), (0, 20), (10, 30)])
        with pytest.raises(ValueError, match="bandwidth"):
            simulate_tree_transfer(tree, snap, message_kbits=10)

    def test_source_only(self):
        snap = make_snapshot(8, [0], capacity=4, bandwidth=500.0)
        tree = hand_tree(snap, 0)
        result = simulate_tree_transfer(tree, snap, message_kbits=10)
        assert result.session_completion == 0.0
        assert sustainable_throughput(tree, snap) == 500.0


class TestUplinkBudget:
    def test_free_uplink_starts_immediately(self):
        from repro.sim.transfer import UplinkBudget

        budget = UplinkBudget()
        start, done = budget.reserve("h", now=1.0, duration=0.5)
        assert (start, done) == (1.0, 1.5)
        assert budget.deferrals() == 0
        assert budget.free_at("h") == 1.5

    def test_busy_uplink_defers(self):
        from repro.sim.transfer import UplinkBudget

        budget = UplinkBudget()
        budget.reserve("h", now=0.0, duration=2.0)
        start, done = budget.reserve("h", now=1.0, duration=0.5)
        assert (start, done) == (2.0, 2.5)
        assert budget.deferrals("h") == 1
        assert budget.backlog("h", 1.0) == pytest.approx(1.5)

    def test_hosts_are_independent(self):
        from repro.sim.transfer import UplinkBudget

        budget = UplinkBudget()
        budget.reserve("a", now=0.0, duration=5.0)
        start, _ = budget.reserve("b", now=0.0, duration=1.0)
        assert start == 0.0
        assert budget.deferrals() == 0
        assert budget.reservations() == 2

    def test_negative_duration_rejected(self):
        from repro.sim.transfer import UplinkBudget

        budget = UplinkBudget()
        with pytest.raises(ValueError, match=">= 0"):
            budget.reserve("h", now=0.0, duration=-1.0)

    @pytest.mark.parametrize(
        ("now", "duration"),
        [
            (0.0, float("nan")),
            (0.0, float("inf")),
            (float("nan"), 1.0),
            (float("inf"), 1.0),
        ],
    )
    def test_non_finite_reservation_leaves_the_ledger_untouched(
        self, now, duration
    ):
        # a NaN duration used to come back as (0.0, nan) and poison the
        # host's free_at for every later reservation
        from repro.sim.transfer import UplinkBudget

        budget = UplinkBudget()
        budget.reserve("h", now=0.0, duration=2.0)
        with pytest.raises(ValueError, match="finite"):
            budget.reserve("h", now, duration)
        with pytest.raises(ValueError, match="finite"):
            budget.reserve_run("h", now, duration, 3)
        assert budget.free_at("h") == 2.0
        assert budget.reservations("h") == 1
        assert budget.deferrals("h") == 0

    def test_empty_run_rejected(self):
        from repro.sim.transfer import UplinkBudget

        budget = UplinkBudget()
        with pytest.raises(ValueError, match="at least one slot"):
            budget.reserve_run("h", 0.0, 1.0, 0)
        assert budget.reservations() == 0

    def test_gap_after_idle_does_not_defer(self):
        from repro.sim.transfer import UplinkBudget

        budget = UplinkBudget()
        budget.reserve("h", now=0.0, duration=1.0)
        start, _ = budget.reserve("h", now=3.0, duration=1.0)
        assert start == 3.0  # uplink went idle at 1.0; no deferral
        assert budget.deferrals("h") == 0


class TestBudgetHook:
    def test_no_budget_path_unchanged(self):
        from repro.multicast.cam_chord import cam_chord_multicast
        from repro.overlay.cam_chord import CamChordOverlay

        # the default (budget=None) path must be byte-identical to the
        # historical per-child-share model
        rng = Random(9)
        idents = sorted(rng.sample(range(1 << 12), 60))
        caps = [rng.randint(2, 8) for _ in idents]
        bws = [rng.uniform(400, 1000) for _ in idents]
        snap = make_snapshot(12, idents, capacity=caps, bandwidth=bws)
        overlay = CamChordOverlay(snap)
        tree = cam_chord_multicast(overlay, snap.nodes[0])
        a = simulate_tree_transfer(tree, snap, message_kbits=500, packet_count=8)
        b = simulate_tree_transfer(
            tree, snap, message_kbits=500, packet_count=8, budget=None
        )
        assert a.completion_time == b.completion_time
        assert a.first_packet_time == b.first_packet_time

    def test_shared_budget_serializes_two_trees(self):
        from repro.sim.transfer import UplinkBudget

        # two sends rooted at the same host against one shared budget:
        # the second must queue behind the first's serialization
        snap = make_snapshot(8, [0, 10, 20], capacity=4, bandwidth=100.0)
        tree = hand_tree(snap, 0, [(0, 10), (0, 20)])
        budget = UplinkBudget()
        first = simulate_tree_transfer(
            tree, snap, message_kbits=100, packet_count=2, budget=budget
        )
        second = simulate_tree_transfer(
            tree, snap, message_kbits=100, packet_count=2, budget=budget
        )
        assert budget.deferrals(0) > 0
        # every receiver in send 2 lands after send 1's uplink is done
        second_receivers = [
            t for ident, t in second.completion_time.items() if ident != 0
        ]
        assert min(second_receivers) > max(first.completion_time.values()) - 1e-9

    def test_start_time_places_send_on_shared_clock(self):
        from repro.sim.transfer import UplinkBudget

        snap = make_snapshot(8, [0, 10], capacity=4, bandwidth=100.0)
        tree = hand_tree(snap, 0, [(0, 10)])
        budget = UplinkBudget()
        result = simulate_tree_transfer(
            tree, snap, message_kbits=100, packet_count=4,
            budget=budget, start_time=5.0,
        )
        # 100 kbits at 100 kbps starting at t=5
        assert result.completion_time[10] == pytest.approx(6.0)
        assert budget.free_at(0) == pytest.approx(6.0)

    def test_host_key_maps_ledger_keys(self):
        from repro.sim.transfer import UplinkBudget

        snap = make_snapshot(8, [0, 10], capacity=4, bandwidth=100.0)
        tree = hand_tree(snap, 0, [(0, 10)])
        budget = UplinkBudget()
        simulate_tree_transfer(
            tree, snap, message_kbits=10, packet_count=1,
            budget=budget, host_key=lambda ident: f"name-{ident}",
        )
        assert budget.free_at("name-0") > 0.0
        assert budget.free_at(0) == 0.0
