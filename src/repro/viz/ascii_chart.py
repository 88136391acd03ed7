"""ASCII charts for figure results.

The offline environment has no matplotlib, and the harness output
should be readable where it runs: in a terminal.  ``render_xy`` draws
multiple series on one axes grid with per-series glyphs and a legend.
Output is deterministic, so examples can assert against it.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.experiments.common import FigureResult, Series

#: one glyph per series, recycled if a figure has more series
GLYPHS = "ox+*#@%&"


def _ticks(low: float, high: float, count: int) -> list[float]:
    """A few round-ish tick values covering [low, high]."""
    if high <= low:
        return [low]
    step = (high - low) / max(count - 1, 1)
    return [low + i * step for i in range(count)]


def _format_tick(value: float) -> str:
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 10_000 or magnitude < 0.01:
        return f"{value:.1e}"
    if magnitude >= 100:
        return f"{value:.0f}"
    return f"{value:.3g}"


def render_xy(
    series_list: Sequence[Series],
    width: int = 64,
    height: int = 20,
    title: str = "",
    x_label: str = "x",
    y_label: str = "y",
    logy: bool = False,
) -> str:
    """Plot series as scatter glyphs on a character grid."""
    points = [(x, y) for series in series_list for x, y in series.points]
    if not points:
        return f"{title}\n(no data)"
    if logy and any(y <= 0 for _, y in points):
        raise ValueError("log-scale y requires positive values")

    def transform(y: float) -> float:
        return math.log10(y) if logy else y

    xs = [x for x, _ in points]
    ys = [transform(y) for _, y in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, series in enumerate(series_list):
        glyph = GLYPHS[index % len(GLYPHS)]
        for x, y in series.points:
            column = round((x - x_low) / x_span * (width - 1))
            row = height - 1 - round((transform(y) - y_low) / y_span * (height - 1))
            grid[row][column] = glyph

    margin = 10
    lines: list[str] = []
    if title:
        lines.append(title)
    y_ticks = {
        height - 1 - round((tick - y_low) / y_span * (height - 1)): tick
        for tick in _ticks(y_low, y_high, 5)
    }
    for row_index, row in enumerate(grid):
        if row_index in y_ticks:
            raw = y_ticks[row_index]
            shown = 10**raw if logy else raw
            label = _format_tick(shown).rjust(margin - 1)
        else:
            label = " " * (margin - 1)
        lines.append(f"{label}|{''.join(row)}")
    lines.append(" " * (margin - 1) + "+" + "-" * width)
    tick_values = _ticks(x_low, x_high, 4)
    tick_line = [" "] * (margin + width)
    for tick in tick_values:
        column = margin + round((tick - x_low) / x_span * (width - 1))
        text = _format_tick(tick)
        start = min(max(0, column - len(text) // 2), margin + width - len(text))
        for offset, char in enumerate(text):
            tick_line[start + offset] = char
    lines.append("".join(tick_line).rstrip())
    lines.append(f"{'':>{margin}}{x_label}   (y: {y_label}{', log' if logy else ''})")
    for index, series in enumerate(series_list):
        glyph = GLYPHS[index % len(GLYPHS)]
        lines.append(f"{'':>{margin}}{glyph} = {series.label}")
    return "\n".join(lines)


def render_figure(result: FigureResult, width: int = 64, height: int = 20) -> str:
    """Chart a whole figure result: one shared plot for all series."""
    body = render_xy(
        result.series,
        width=width,
        height=height,
        title=f"{result.figure}: {result.title}",
    )
    notes = "\n".join(f"note: {note}" for note in result.notes)
    return f"{body}\n{notes}" if notes else body
