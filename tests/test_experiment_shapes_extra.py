"""Bench-scale shape checks for the experiment modules not covered by
tests/test_experiments.py: fig10 and the extensions.  Each module runs
once at ``SCALES["bench"]`` (n = 2,500, the size its bounds were tuned
at).  The ``*Tiny`` class names date from when these ran at n = 400."""

from __future__ import annotations

from repro.experiments import (
    ext_churn,
    ext_geography,
    ext_proximity,
    ext_reliability,
    ext_sessions,
    ext_timed,
)
from repro.experiments.common import SCALES
from tests.test_experiments import mean_hops, run_figure

BENCH = SCALES["bench"]


def mean_at(series, offset: float) -> float:
    """Mean of the points whose x sits ``offset`` past an integer."""
    values = [y for x, y in series.points if abs(x % 1 - offset) < 1e-9]
    return sum(values) / len(values)


class TestFig10Tiny:
    def test_distributions_shift_left(self):
        result = run_figure("fig10")
        means = {s.label: mean_hops(s) for s in result.series}
        # curves shift left with wider capacity ranges, with the
        # largest improvement at the start of the sweep
        assert means["4"] > means["[4..10]"] > means["[4..40]"] > means["[4..200]"]
        assert means["4"] > means["[4..20]"] > means["[4..200]"]
        assert means["4"] - means["[4..10]"] > means["[4..40]"] - means["[4..100]"]


class TestExtLookupTiny:
    def test_hops_grow_sublinearly(self):
        result = run_figure("extC")
        for label in ("cam-chord", "cam-koorde", "chord", "koorde"):
            ys = result.get_series(label).ys()
            # hops grow with n, but 10x the nodes costs far less than 10x hops
            assert ys[-1] > ys[0], label
            assert ys[-1] < 4 * ys[0], label
        # CAM-Chord's greedy descent stays within a small constant of
        # the ln(n)/ln(mean capacity) theory curve (Theorems 1-2)
        reference = result.get_series("ln(n)/ln(7) reference").points
        for (_, hops), (_, ref) in zip(result.get_series("cam-chord").points, reference):
            assert hops < 2.5 * ref


class TestExtProximityTiny:
    def test_pns_reduces_mean_delay(self):
        result = ext_proximity.run(BENCH)
        default = result.get_series("default (mean, max, hops)")
        pns = result.get_series("pns (mean, max, hops)")
        # PNS cuts mean delivery delay without inflating hop counts by
        # more than ~15%
        assert mean_at(pns, 0.0) < mean_at(default, 0.0)
        assert mean_at(pns, 0.5) < mean_at(default, 0.5) * 1.15


class TestExtTimedTiny:
    def test_ratio_in_unit_interval(self):
        result = ext_timed.run(BENCH)
        for per_link, ratio in result.get_series("measured/analytic (long)").points:
            assert 0.8 <= ratio <= 1.0001, (per_link, ratio)
        # short messages never reach the analytic bottleneck rate
        shorts = dict(result.get_series("measured short-message (kbps)").points)
        analytic = dict(result.get_series("analytic bottleneck (kbps)").points)
        for per_link in analytic:
            assert shorts[per_link] < analytic[per_link]


class TestExtGeographyTiny:
    def test_geographic_layout_helps(self):
        result = ext_geography.run(BENCH)
        random_layout = result.get_series("random layout")
        # both section 5.2 techniques beat the random baseline on delay,
        # with hop counts within 15% of the baseline's
        for label in ("random + pns", "geographic layout"):
            series = result.get_series(label)
            assert mean_at(series, 0.0) < mean_at(random_layout, 0.0), label
            assert mean_at(series, 0.5) < mean_at(random_layout, 0.5) * 1.15, label


class TestExtChurn:
    def test_flooding_stays_lossless_under_churn(self):
        result = ext_churn.run(BENCH)
        chord = dict(result.get_series("cam-chord").points)
        koorde = dict(result.get_series("cam-koorde").points)
        top_rate = max(chord)
        # no churn: both systems deliver everything
        assert chord[0.0] == koorde[0.0] == 1.0
        # under churn the flood stays (near) lossless, the tree degrades ...
        assert koorde[top_rate] >= chord[top_rate]
        assert koorde[top_rate] > 0.97
        # ... and the flood pays with duplicate traffic
        koorde_dups = dict(result.get_series("cam-koorde dups/msg").points)
        chord_dups = dict(result.get_series("cam-chord dups/msg").points)
        assert koorde_dups[top_rate] > 10 * max(chord_dups[top_rate], 1.0)


class TestExtReliability:
    def test_acked_repair_recovers_churn_loss(self):
        result = ext_reliability.run(BENCH)
        baseline = dict(result.get_series("baseline").points)
        repaired = dict(result.get_series("acked-repair").points)
        top_rate = max(baseline)
        # both lossless with no churn
        assert baseline[0.0] == repaired[0.0] == 1.0
        # repair recovers most of the churn loss ...
        assert repaired[top_rate] >= baseline[top_rate]
        assert repaired[top_rate] > 0.9
        # ... at far below flooding's duplicate cost (extA: ~1000/msg)
        repair_dups = dict(result.get_series("acked-repair dups/msg").points)
        assert repair_dups[top_rate] < 100


class TestExtSessions:
    def test_short_sessions_hurt_the_tree_more(self):
        result = ext_sessions.run(BENCH)
        chord = dict(result.get_series("cam-chord").points)
        koorde = dict(result.get_series("cam-koorde").points)
        shortest, longest = min(chord), max(chord)
        # long sessions: both systems essentially lossless
        assert chord[longest] > 0.95
        assert koorde[longest] > 0.99
        # short sessions hurt the tree more than the flood, and delivery
        # degrades as sessions shorten
        assert koorde[shortest] >= chord[shortest]
        assert chord[shortest] < chord[longest]
