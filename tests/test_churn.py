"""Tests for churn traces and the resilience experiment driver."""

from __future__ import annotations

import math
from random import Random

import pytest

from repro.churn.resilience import ResilienceReport
from repro.churn.runner import ChurnExperiment
from repro.churn.trace import (
    ChurnKind,
    poisson_trace,
    session_trace,
)


class TestPoissonTrace:
    def test_rates_approximately_respected(self):
        trace = poisson_trace(1000, join_rate=0.5, depart_rate=0.25, rng=Random(1))
        joins = sum(1 for e in trace if e.kind is ChurnKind.JOIN)
        departs = len(trace) - joins
        assert 400 < joins < 600
        assert 180 < departs < 320

    def test_sorted_by_time(self):
        trace = poisson_trace(100, 1.0, 1.0, rng=Random(2))
        times = [e.time for e in trace]
        assert times == sorted(times)
        assert all(0 <= t < 100 for t in times)

    def test_crash_fraction(self):
        all_crash = poisson_trace(500, 0, 1.0, crash_fraction=1.0, rng=Random(3))
        assert all(e.kind is ChurnKind.CRASH for e in all_crash)
        all_leave = poisson_trace(500, 0, 1.0, crash_fraction=0.0, rng=Random(3))
        assert all(e.kind is ChurnKind.LEAVE for e in all_leave)

    def test_zero_rates(self):
        trace = poisson_trace(100, 0, 0)
        assert len(trace) == 0
        assert trace.rate_per_second() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_trace(-1, 1, 1)
        with pytest.raises(ValueError):
            poisson_trace(10, -1, 1)
        with pytest.raises(ValueError):
            poisson_trace(10, 1, 1, crash_fraction=2.0)

    def test_determinism(self):
        a = poisson_trace(200, 0.3, 0.3, rng=Random(7))
        b = poisson_trace(200, 0.3, 0.3, rng=Random(7))
        assert a.events == b.events


class TestSessionTrace:
    def test_every_join_may_depart_later(self):
        trace = session_trace(300, arrival_rate=0.5, mean_lifetime=30, rng=Random(4))
        joins = sum(1 for e in trace if e.kind is ChurnKind.JOIN)
        departs = len(trace) - joins
        assert joins > 0
        assert departs <= joins  # departures beyond horizon dropped

    def test_short_lifetimes_mean_more_departures(self):
        short = session_trace(300, 0.5, mean_lifetime=5, rng=Random(5))
        long = session_trace(300, 0.5, mean_lifetime=500, rng=Random(5))
        departs_short = sum(1 for e in short if e.kind is not ChurnKind.JOIN)
        departs_long = sum(1 for e in long if e.kind is not ChurnKind.JOIN)
        assert departs_short > departs_long

    def test_validation(self):
        with pytest.raises(ValueError):
            session_trace(100, 1.0, mean_lifetime=0)


class TestResilienceReport:
    def test_aggregates(self):
        report = ResilienceReport(
            system="x",
            churn_rate=0.1,
            delivery_ratios=[1.0, 0.5],
            duplicates_per_message=[4, 6],
            ring_consistency_samples=[True, False],
            path_lengths=[1, 2, 3],
        )
        assert report.mean_delivery_ratio == 0.75
        assert report.min_delivery_ratio == 0.5
        assert report.mean_duplicates == 5
        assert report.ring_consistency_fraction == 0.5
        assert "x" in report.summary_row()

    def test_empty_defaults(self):
        # A run that measured nothing has no delivery evidence: NaN, not
        # a fabricated perfect 1.0 (which would inflate aggregates).
        report = ResilienceReport(system="x", churn_rate=0)
        assert math.isnan(report.mean_delivery_ratio)
        assert math.isnan(report.min_delivery_ratio)
        assert report.mean_duplicates == 0.0
        assert report.ring_consistency_fraction == 1.0
        # ...and the summary row still renders without raising.
        assert "x" in report.summary_row()


class TestChurnExperiment:
    def test_no_churn_full_delivery(self):
        rng = Random(1)
        caps = [rng.randint(4, 10) for _ in range(25)]
        trace = poisson_trace(40, 0, 0)
        experiment = ChurnExperiment("cam-chord", caps, space_bits=12, seed=2)
        report = experiment.run(trace, multicast_interval=10, propagation_window=4)
        assert report.delivery_ratios  # some multicasts happened
        assert report.mean_delivery_ratio == 1.0
        assert report.ring_consistency_fraction == 1.0
        assert report.final_membership == 25

    def test_churn_flooding_beats_tree(self):
        rng = Random(2)
        caps = [rng.randint(4, 10) for _ in range(30)]
        results = {}
        for system in ("cam-chord", "cam-koorde"):
            trace = poisson_trace(
                60, join_rate=0.2, depart_rate=0.2, rng=Random(11)
            )
            experiment = ChurnExperiment(system, caps, space_bits=13, seed=3)
            results[system] = experiment.run(
                trace, multicast_interval=10, propagation_window=4
            )
        assert (
            results["cam-koorde"].mean_delivery_ratio
            >= results["cam-chord"].mean_delivery_ratio
        )
        # flooding pays with duplicate traffic
        assert (
            results["cam-koorde"].mean_duplicates
            > results["cam-chord"].mean_duplicates
        )

    def test_membership_tracks_churn(self):
        rng = Random(3)
        caps = [rng.randint(4, 10) for _ in range(20)]
        trace = poisson_trace(50, join_rate=0.5, depart_rate=0.0, rng=Random(12))
        experiment = ChurnExperiment("cam-chord", caps, space_bits=13, seed=4)
        report = experiment.run(trace, multicast_interval=25, propagation_window=4)
        assert report.final_membership > 20
