"""Tests for the experiment harness: the common types, the runner CLI,
and each figure's headline shapes at bench scale."""

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
    SCALES,
    FigureResult,
    Series,
    resolve_scale,
)
from repro.experiments.runner import main

BENCH = SCALES["bench"]


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


def mean_hops(series) -> float:
    """Mean path length of a hop-count histogram series."""
    total = sum(x * y for x, y in series.points)
    count = sum(y for _, y in series.points)
    return total / count


def interp(series: dict, x: float) -> float:
    """Linear interpolation of a ``{x: y}`` curve, clamped at its ends."""
    xs = sorted(series)
    lo = max((v for v in xs if v <= x), default=xs[0])
    hi = min((v for v in xs if v >= x), default=xs[-1])
    if lo == hi:
        return series[lo]
    t = (x - lo) / (hi - lo)
    return series[lo] * (1 - t) + series[hi] * t


class TestFigureShapes:
    """Each figure runs at bench scale (n = 2,500, the size its bounds
    were tuned at) and its headline shapes hold."""

    def test_fig6_cam_dominates_baseline(self):
        result = fig06_throughput.run(BENCH)
        cam_chord, cam_koorde, chord, koorde = (
            dict(result.get_series(label).points)
            for label in ("cam-chord", "cam-koorde", "chord", "koorde")
        )
        # every curve decays with fanout: more children per node means
        # less bandwidth per child link
        for series in (cam_chord, chord, koorde):
            xs = sorted(series)
            assert series[xs[0]] > series[xs[-1]]
        # the capacity-aware systems beat their baselines at comparable
        # fanout by about the heterogeneity factor E[B]/min B = 1.75
        # (paper: 70-80% improvement)
        for fanout in (8.0, 16.0, 32.0):
            chord_ratio = interp(cam_chord, fanout) / interp(chord, fanout)
            koorde_ratio = interp(cam_koorde, fanout) / interp(koorde, fanout)
            assert 1.3 < chord_ratio < 2.6, f"cam-chord/chord @ {fanout}: {chord_ratio}"
            assert 1.2 < koorde_ratio < 3.0, f"cam-koorde/koorde @ {fanout}: {koorde_ratio}"

    def test_fig7_ratio_tracks_heterogeneity(self):
        result = fig07_ratio.run(BENCH)
        reference = result.get_series("(a+b)/2a reference").ys()
        for label in ("cam-chord over chord", "cam-koorde over koorde"):
            ratios = result.get_series(label).ys()
            # grows with the bandwidth range ...
            assert ratios[-1] > ratios[0], label
            # ... shows a win everywhere and tracks (a+b)/2a within a
            # modest margin
            for ratio, ref in zip(ratios, reference):
                assert max(1.0, ref * 0.6) < ratio < ref * 1.45, (label, ratio, ref)

    def test_fig8_curves_rise(self):
        result = fig08_tradeoff.run(BENCH)
        chord = result.get_series("cam-chord").points
        koorde = result.get_series("cam-koorde").points
        # path length grows with throughput for both systems
        for points in (chord, koorde):
            assert points[-1][1] > points[0][1]
        # the paper's crossover: at the low-throughput end (large
        # capacities) CAM-Koorde's paths are no longer than CAM-Chord's,
        # at the high-throughput end (small capacities) CAM-Chord wins
        assert koorde[0][1] <= chord[0][1] * 1.1
        high_chord = [y for x, y in chord if x >= 90]
        high_koorde = [y for x, y in koorde if x >= 90]
        assert min(high_koorde) > min(high_chord)

    def test_fig9_distributions_shift_left(self):
        result = fig09_pathdist_cam_chord.run(BENCH)
        means = {series.label: mean_hops(series) for series in result.series}
        # widening the capacity range shifts the distribution left ...
        assert means["4"] > means["[4..10]"] > means["[4..40]"] > means["[4..200]"]
        assert means["4"] > means["[4..20]"] > means["[4..200]"]
        # ... with diminishing returns: the first widening helps more
        # than a later one of equal proportion
        assert means["4"] - means["[4..10]"] > means["[4..40]"] - means["[4..100]"]
        # single peak, no heavy right tail
        for series in result.series:
            longest = max(x for x, _ in series.points)
            assert longest <= 2.5 * means[series.label] + 2

    def test_fig11_bound_and_crossover_tendency(self):
        result = fig11_avg_path_length.run(BENCH)
        chord = dict(result.get_series("cam-chord").points)
        koorde = dict(result.get_series("cam-koorde").points)
        bound = dict(result.get_series("1.5*ln(n)/ln(c)").points)
        # both fall with capacity (a small wobble between neighbours is ok)
        for series in (chord, koorde):
            ys = [series[x] for x in sorted(series)]
            assert all(a >= b - 0.3 for a, b in zip(ys, ys[1:]))
        assert chord[102.0] < chord[4.0]
        assert koorde[102.0] < koorde[4.0]
        # 1.5 ln(n)/ln(c) upper-bounds both (Theorems 4 and 6); the
        # constant is tuned at n = 100,000, and small groups have a
        # depth floor the bound does not model, hence the additive slack
        for x in chord:
            assert chord[x] <= bound[x] * 1.1 + 1.0
            assert koorde[x] <= bound[x] * 1.1 + 1.0
        # the paper's crossover: CAM-Chord shorter for small capacities,
        # CAM-Koorde no worse for large ones
        assert chord[4.0] < koorde[4.0]
        assert koorde[102.0] <= chord[102.0] * 1.05

    def test_ext_load_flooding_spreads(self):
        result = ext_load.run(BENCH)
        flood = dict(result.get_series("flooding").points)
        tree = dict(result.get_series("single-tree").points)
        # same total work (x=0 is mean kbits per node) ...
        assert abs(flood[0] - tree[0]) / tree[0] < 0.05
        # ... but flooding spreads it: smaller peak-to-mean, smaller
        # spread, and far fewer idle members (tree-building idles every
        # leaf, the majority when fanout > 2 -- Section 5.1)
        assert flood[1] < tree[1]
        assert flood[2] < tree[2]
        assert flood[3] < 0.2
        assert tree[3] > 0.5

    def test_ext_balance_degree_capped(self):
        result = ext_balance.run(BENCH)
        balanced = dict(result.get_series("balanced (ours)").points)
        el_ansary = dict(result.get_series("el-ansary").points)
        for k in {int(x) for x in balanced if x == int(x)}:
            # our splitter caps root and max degree at the uniform fanout
            assert balanced[float(k)] <= ext_balance.FANOUT
            assert balanced[k + 0.2] <= ext_balance.FANOUT
            # El-Ansary's root forwards to every distinct finger: ~(k-1)log_k n
            assert el_ansary[float(k)] > 2 * ext_balance.FANOUT


class TestRunnerCli:
    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_plot_with_replicate_rejected(self, capsys):
        # an aggregated figure has no chart: the flag used to be
        # dropped without a word
        with pytest.raises(SystemExit) as exited:
            main(["extB", "--plot", "--replicate", "2"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "--plot" in err and "--replicate" in err

    def test_registry_complete(self):
        assert set(registry.REGISTRY) == {
            "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
            "extA", "extB", "extC", "extD", "extE", "extF", "extG", "extH",
            "extI", "extJ", "extK", "extM", "extN", "extO",
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
