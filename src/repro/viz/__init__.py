"""Terminal rendering of experiment results (no plotting dependencies)."""

from repro.viz.ascii_chart import render_figure, render_xy

__all__ = ["render_figure", "render_xy"]
