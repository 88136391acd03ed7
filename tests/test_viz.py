"""Tests for the ASCII chart renderer."""

from __future__ import annotations

import pytest

from repro.experiments.common import FigureResult, Series
from repro.viz.ascii_chart import render_figure, render_xy


def series(label: str, points: list[tuple[float, float]]) -> Series:
    s = Series(label=label)
    for x, y in points:
        s.add(x, y)
    return s


class TestRenderXy:
    def test_empty(self):
        assert "(no data)" in render_xy([Series(label="s")], title="t")

    def test_glyphs_and_legend(self):
        chart = render_xy(
            [series("alpha", [(0, 0), (10, 10)]), series("beta", [(5, 5)])],
            width=20,
            height=8,
        )
        assert "o = alpha" in chart
        assert "x = beta" in chart
        assert "o" in chart.splitlines()[0] + chart  # glyphs plotted

    def test_extremes_on_grid_corners(self):
        chart = render_xy([series("s", [(0, 0), (100, 50)])], width=21, height=6)
        lines = chart.splitlines()
        plot_rows = [l for l in lines if "|" in l]
        # max y in the top plot row, min y in the bottom one
        assert "o" in plot_rows[0]
        assert "o" in plot_rows[-1]
        top = plot_rows[0]
        bottom = plot_rows[-1]
        assert top.rindex("o") > bottom.index("o")

    def test_single_point(self):
        chart = render_xy([series("s", [(3, 7)])])
        assert "o" in chart

    def test_logy(self):
        chart = render_xy(
            [series("s", [(0, 1), (1, 10), (2, 100)])], height=9, logy=True
        )
        lines = [l for l in chart.splitlines() if "|" in l]
        columns = [l.index("o") for l in lines if "o" in l]
        rows = [i for i, l in enumerate(lines) if "o" in l]
        # log scale spaces the decades evenly
        assert len(rows) == 3
        assert rows[1] - rows[0] == rows[2] - rows[1]

    def test_logy_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            render_xy([series("s", [(0, 0)])], logy=True)

    def test_deterministic(self):
        data = [series("a", [(0, 1), (5, 2)]), series("b", [(2, 9)])]
        assert render_xy(data) == render_xy(data)


class TestRenderFigure:
    def test_includes_title_and_notes(self):
        figure = FigureResult(
            figure="figX",
            title="demo",
            series=[series("s", [(0, 1), (1, 2)])],
            notes=["watch the slope"],
        )
        chart = render_figure(figure)
        assert "figX: demo" in chart
        assert "note: watch the slope" in chart
