"""Property-based tests for the fault-injection campaign subsystem.

Random :class:`~repro.faults.FaultPlan` schedules on clusters of up to
64 members must satisfy every oracle after quiesce-and-repair; any
failure hypothesis finds is shrunk (by our own shrinker, not just
hypothesis's) to a replayable minimal scenario whose JSON round-trips.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.churn.resilience import ResilienceReport
from repro.faults import (
    FaultEvent,
    FaultPlan,
    PlanOutcome,
    crash_at,
    generate_plan,
    loss_burst,
    run_campaign,
    run_plan,
    save_plan,
    shrink_plan,
    timeout_storm,
)
from repro.faults.campaign import CampaignResult, ordered_map
from repro.faults.plan import ACTIONS, load_plan
from repro.systems import get_system, system_names
from tests.conftest import assert_plan_deterministic

WINDOW = 20.0


# -- strategies ---------------------------------------------------------------

fault_events = st.builds(
    FaultEvent,
    time=st.floats(min_value=0.0, max_value=WINDOW, allow_nan=False),
    action=st.sampled_from(ACTIONS),
    a=st.integers(min_value=0, max_value=63),
    b=st.integers(min_value=0, max_value=63),
    rate=st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
    kind=st.sampled_from(["", "get_info", "next_hop", "mc_region", "mc_flood"]),
    capacity=st.integers(min_value=4, max_value=8),
)

fault_plans = st.builds(
    FaultPlan,
    system=st.sampled_from(sorted(system_names())),
    size=st.integers(min_value=6, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    events=st.lists(fault_events, max_size=5).map(
        lambda events: tuple(sorted(events, key=lambda e: (e.time, e.action)))
    ),
    fault_window=st.just(WINDOW),
    multicasts=st.integers(min_value=1, max_value=2),
    propagation_window=st.just(10.0),
)


# -- properties ---------------------------------------------------------------


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(plan=fault_plans)
def test_random_plans_satisfy_all_oracles(plan: FaultPlan, tmp_path_factory):
    """Any random schedule either passes every oracle or shrinks to a
    replayable minimal repro (which we save before failing loudly)."""
    outcome = run_plan(plan)
    if outcome.passed:
        assert outcome.measured, "a passing run must have measured multicasts"
        assert all(ratio == 1.0 for ratio in outcome.delivery_ratios)
        return
    minimized, final = shrink_plan(plan)
    path = tmp_path_factory.mktemp("faults") / "minimal-repro.json"
    save_plan(
        minimized, str(path), extra={"violations": [str(v) for v in final.violations]}
    )
    replayed = run_plan(load_plan(str(path)))
    pytest.fail(
        f"oracle violation (minimized repro at {path}, replays "
        f"{len(replayed.violations)} violations): "
        + "; ".join(str(v) for v in final.violations)
    )


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    system=st.sampled_from(["koorde", "cam-koorde"]),
    index=st.integers(min_value=0, max_value=30),
)
def test_flood_duplicates_match_network_accounting(system: str, index: int):
    """Flood systems: recorded duplicate counts must balance against the
    network's per-kind delivered-datagram counters — the flood-accounting
    oracle holds on every generated plan, not just the passing ones."""
    plan = generate_plan(system, index, campaign_seed=7)
    outcome = run_plan(plan)
    assert not [
        v for v in outcome.violations if v.oracle == "flood-accounting"
    ], "flood accounting imbalance on an unmutated peer"
    if outcome.measured:
        descriptor = get_system(system)
        assert not descriptor.builds_single_tree
        # floods legitimately duplicate; the monitor must have seen them
        assert all(count >= 0 for count in outcome.duplicates_per_message)


def test_same_plan_twice_is_identical():
    """Two runs of one plan in one process (shared message-id counter,
    shared tracer) produce identical violation sets and measurements."""
    plan = generate_plan("cam-chord", 2, campaign_seed=3)
    outcome = assert_plan_deterministic(plan)
    assert outcome.passed


def test_generated_plans_are_reproducible():
    """generate_plan is a pure function of (system, index, seed)."""
    for system in system_names():
        assert generate_plan(system, 5, 11) == generate_plan(system, 5, 11)
    assert generate_plan("chord", 0, 0) != generate_plan("chord", 1, 0)


@given(plan=fault_plans)
@settings(max_examples=25, deadline=None)
def test_plan_json_round_trip(plan: FaultPlan, tmp_path_factory):
    """save_plan/load_plan is the identity on every expressible plan."""
    path = tmp_path_factory.mktemp("plans") / "plan.json"
    save_plan(plan, str(path))
    assert load_plan(str(path)) == plan
    # and the file is actual JSON, not a pickle in disguise
    with open(path, encoding="utf-8") as handle:
        assert json.load(handle)["system"] == plan.system


def test_campaign_serial_matches_parallel():
    """--jobs N aggregates byte-identically to serial execution."""
    plans = [generate_plan("cam-chord", i, 1) for i in range(3)]
    serial = run_campaign(plans, jobs=1)
    parallel = run_campaign(plans, jobs=2)
    assert [o.violations for o in serial.outcomes] == [
        o.violations for o in parallel.outcomes
    ]
    assert [o.delivery_ratios for o in serial.outcomes] == [
        o.delivery_ratios for o in parallel.outcomes
    ]
    assert serial.summary() == parallel.summary()


@pytest.mark.parametrize("jobs", [1, 2])
def test_ordered_map_keeps_task_order_and_reports_progress(jobs):
    """The one pooled loop behind every campaign and matrix runner."""
    tasks = [9, 4, 7, 1]
    seen: list[int] = []
    assert ordered_map(abs, [-task for task in tasks], jobs, seen.append) == tasks
    assert seen == tasks
    assert ordered_map(abs, [], jobs) == []


# -- empty-run aggregation guards (NaN regression) ----------------------------


def test_empty_report_is_nan_but_flagged():
    """An unmeasured ResilienceReport reports NaN ratios and says so."""
    report = ResilienceReport(system="cam-chord", churn_rate=0.0)
    assert not report.has_measurements
    assert math.isnan(report.mean_delivery_ratio)
    assert math.isnan(report.min_delivery_ratio)


def test_campaign_aggregation_skips_unmeasured_runs():
    """A convergence-failed outcome (no multicast phase) must not poison
    the campaign's mean delivery with NaN."""
    plan = generate_plan("cam-chord", 0, 0)
    measured = PlanOutcome(plan=plan, delivery_ratios=(1.0, 0.5))
    unmeasured = PlanOutcome(plan=plan)  # bootstrap/convergence failure
    result = CampaignResult(outcomes=[measured, unmeasured])
    mean = result.mean_delivery()
    assert mean is not None and not math.isnan(mean)
    assert mean == pytest.approx(0.75)
    assert "n/a" not in result.summary()


def test_campaign_aggregation_with_no_measured_runs():
    plan = generate_plan("cam-chord", 0, 0)
    result = CampaignResult(outcomes=[PlanOutcome(plan=plan)])
    assert result.mean_delivery() is None
    assert "n/a" in result.summary()


# -- plan validation ----------------------------------------------------------


def test_plan_rejects_events_outside_window():
    with pytest.raises(ValueError, match="outside fault window"):
        FaultPlan(
            system="cam-chord",
            size=8,
            seed=0,
            events=tuple(crash_at(99.0, 0)),
            fault_window=30.0,
        )


def test_event_rejects_unknown_action():
    with pytest.raises(ValueError, match="unknown fault action"):
        FaultEvent(1.0, "meteor")


def test_primitives_respect_the_window_limit():
    events = loss_burst(28.0, 10.0, 0.2, limit=30.0)
    assert all(event.time <= 30.0 for event in events)
    events = timeout_storm(29.0, 5.0, 0.5, limit=30.0)
    assert all(event.time <= 30.0 for event in events)


def test_shrinker_refuses_passing_plans():
    plan = FaultPlan(system="cam-chord", size=8, seed=4, events=())
    with pytest.raises(ValueError, match="does not fail"):
        shrink_plan(plan)


# -- schedule summarization ---------------------------------------------------


class TestDescribeCompositePrimitives:
    """describe() names the composite shapes, not their raw expansion."""

    def test_partition_window_coalesced(self):
        from repro.faults import partition_window

        plan = FaultPlan(
            system="cam-chord",
            size=8,
            seed=0,
            events=tuple(partition_window(2.0, 5.0, 1, 4, limit=30.0)),
        )
        assert "partition_window" in plan.describe()
        assert "heal" not in plan.describe()

    def test_timeout_storm_coalesced(self):
        plan = FaultPlan(
            system="cam-chord",
            size=8,
            seed=0,
            events=tuple(timeout_storm(3.0, 6.0, 0.4, limit=30.0)),
        )
        assert plan.describe().count("timeout_storm") == 1
        assert "kind_loss" not in plan.describe()

    def test_flash_churn_counted(self):
        from repro.faults import flash_churn

        plan = FaultPlan(
            system="cam-chord",
            size=8,
            seed=0,
            events=tuple(flash_churn(1.0, 5, 0.5, 6, limit=30.0)),
        )
        assert "flash_churn[5]" in plan.describe()

    def test_loss_burst_and_kind_loss_named(self):
        from repro.faults import message_loss_burst, summarize_events

        names = summarize_events(loss_burst(2.0, 4.0, 0.2, limit=30.0))
        assert names == ["loss_burst"]
        names = summarize_events(
            message_loss_burst(2.0, 4.0, "mc_region", 0.2, limit=30.0)
        )
        assert names == ["kind_loss(mc_region)"]

    def test_dangling_halves_stay_raw(self):
        from repro.faults import summarize_events

        # a shrunk plan may keep a partition without its heal
        names = summarize_events([FaultEvent(2.0, "partition", a=1, b=4)])
        assert names == ["partition"]
        names = summarize_events([FaultEvent(2.0, "loss", rate=0.2)])
        assert names == ["loss"]
