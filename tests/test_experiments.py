"""Tests for the experiment harness (tiny scales: wiring, not science)."""

from __future__ import annotations

import pytest

from repro.experiments import (
    fig06_throughput,
    fig07_ratio,
    fig08_tradeoff,
    fig09_pathdist_cam_chord,
    fig11_avg_path_length,
    ext_balance,
    ext_load,
    registry,
)
from repro.experiments.common import (
    ExperimentScale,
    FigureResult,
    Series,
    resolve_scale,
)
from repro.experiments.runner import main

TINY = ExperimentScale("tiny", 400, 2, 20, space_bits=12)


class TestCommon:
    def test_resolve_scale_by_name(self):
        assert resolve_scale("quick").name == "quick"
        assert resolve_scale("paper").group_size == 100_000
        assert resolve_scale().name == "default"  # no --scale given

    def test_resolve_scale_unknown(self):
        with pytest.raises(ValueError, match="unknown scale"):
            resolve_scale("huge")

    def test_series_and_figure_result(self):
        series = Series(label="s")
        series.add(1, 2)
        series.add(3, 4)
        assert series.xs() == [1, 3]
        assert series.ys() == [2, 4]
        figure = FigureResult(figure="f", title="t", series=[series])
        assert figure.get_series("s") is series
        with pytest.raises(KeyError):
            figure.get_series("missing")
        rendered = figure.render()
        assert "f: t" in rendered and "-- s" in rendered


class TestFigureShapes:
    """Each figure runs at tiny scale and its headline shape holds."""

    def test_fig6_cam_dominates_baseline(self):
        result = fig06_throughput.run(TINY)
        cam = dict(result.get_series("cam-chord").points)
        chord = dict(result.get_series("chord").points)
        # compare at the shared fanout point (both sweeps include ~7)
        cam_at_7 = min(cam.items(), key=lambda kv: abs(kv[0] - 7))[1]
        chord_at_8 = chord[8.0]
        assert cam_at_7 > chord_at_8

    def test_fig7_ratio_tracks_heterogeneity(self):
        result = fig07_ratio.run(TINY)
        ratios = result.get_series("cam-chord over chord").ys()
        reference = result.get_series("(a+b)/2a reference").ys()
        # at tiny scale noise blurs exact monotonicity, but the widest
        # range must beat the narrowest and every ratio must show a win
        assert ratios[-1] > ratios[0]
        for ratio, ref in zip(ratios, reference):
            assert 1.0 < ratio < ref * 1.6

    def test_fig8_curves_rise(self):
        result = fig08_tradeoff.run(TINY)
        for label in ("cam-chord", "cam-koorde"):
            ys = result.get_series(label).ys()
            # path length grows with throughput (allow minor wobble)
            assert ys[-1] > ys[0]

    def test_fig9_distributions_shift_left(self):
        result = fig09_pathdist_cam_chord.run(TINY)
        def mean_hops(label):
            series = result.get_series(label)
            total = sum(x * y for x, y in series.points)
            count = sum(y for _, y in series.points)
            return total / count
        assert mean_hops("4") > mean_hops("[4..20]") > mean_hops("[4..200]")

    def test_fig11_bound_and_crossover_tendency(self):
        result = fig11_avg_path_length.run(TINY)
        chord = dict(result.get_series("cam-chord").points)
        koorde = dict(result.get_series("cam-koorde").points)
        # small capacities: CAM-Chord shorter (paper Figure 11)
        assert chord[4.0] < koorde[4.0]
        # both fall as capacity grows
        assert chord[102.0] < chord[4.0]
        assert koorde[102.0] < koorde[4.0]

    def test_ext_load_flooding_spreads(self):
        result = ext_load.run(TINY)
        flood = dict(result.get_series("flooding").points)
        tree = dict(result.get_series("single-tree").points)
        assert flood[3] < tree[3]  # idle fraction
        assert flood[1] < tree[1]  # max/mean

    def test_ext_balance_degree_capped(self):
        result = ext_balance.run(TINY)
        balanced = result.get_series("balanced (ours)")
        el_ansary = result.get_series("el-ansary")
        balanced_root = balanced.points[0][1]
        el_root = el_ansary.points[0][1]
        assert balanced_root <= 4
        assert el_root > 4


class TestRunnerCli:
    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_registry_complete(self):
        assert set(registry.REGISTRY) == {
            "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
            "extA", "extB", "extC", "extD", "extE", "extF", "extG", "extH",
            "extI", "extJ", "extK", "extL", "extM", "extN", "extO",
        }
        for name in registry.REGISTRY:
            assert callable(registry.load(name).run), name

    def test_single_run_prints_and_writes(self, tmp_path, capsys):
        # run the cheapest experiment at quick scale via the CLI
        code = main(["extB", "--scale", "quick", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "extB" in out
        assert (tmp_path / "extB.txt").exists()
