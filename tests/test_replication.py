"""Tests for multi-seed experiment replication."""

from __future__ import annotations

import pytest

from repro.experiments.common import ExperimentScale, FigureResult, Series
from repro.experiments.replication import ReplicatedResult, aggregate

TINY = ExperimentScale("tiny", 100, 1, 10, space_bits=10)


def fake_experiment(scale: ExperimentScale, seed: int) -> FigureResult:
    """Deterministic stand-in: y = x + seed."""
    series = Series(label="line")
    for x in (0.0, 1.0, 2.0):
        series.add(x, x + seed)
    return FigureResult(figure="fake", title="fake", series=[series])


class TestReplicate:
    def test_mean_and_deviation(self):
        result = aggregate([fake_experiment(TINY, seed) for seed in [0, 2]])
        line = result.get_series("line")
        assert line.xs == [0.0, 1.0, 2.0]
        assert line.means == [1.0, 2.0, 3.0]  # mean of seed 0 and 2
        # sample sd of {x, x+2} is sqrt(2)
        assert all(dev == pytest.approx(2**0.5) for dev in line.deviations)

    def test_single_seed_zero_deviation(self):
        result = aggregate([fake_experiment(TINY, seed) for seed in [5]])
        line = result.get_series("line")
        assert line.means == [5.0, 6.0, 7.0]
        assert line.deviations == [0.0, 0.0, 0.0]

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            aggregate([fake_experiment(TINY, seed) for seed in []])

    def test_render_mentions_runs(self):
        result = aggregate([fake_experiment(TINY, seed) for seed in [0, 1, 2]])
        rendered = result.render()
        assert "3 seeds" in rendered
        assert "±" in rendered

    def test_missing_series_lookup(self):
        result = aggregate([fake_experiment(TINY, seed) for seed in [0]])
        with pytest.raises(KeyError):
            result.get_series("nope")

    def test_as_series_roundtrip(self):
        result = aggregate([fake_experiment(TINY, seed) for seed in [0, 2]])
        plain = result.get_series("line").as_series()
        assert plain.points == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]

    def test_real_experiment_replicates(self):
        """End-to-end: a real figure module under replication."""
        from repro.experiments import ext_load

        result = aggregate([ext_load.run(TINY, seed) for seed in [0, 1]])
        assert isinstance(result, ReplicatedResult)
        flood = result.get_series("flooding")
        assert len(flood.means) == 4
