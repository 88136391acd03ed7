"""Extension H: timed transfer vs. the Section 6.1 analytic model.

Figure 6's throughput numbers come from the analytic bottleneck
``min_x B_x / d_x``.  This experiment validates that model with the
packet-level store-and-forward simulation: for each per-link rate
``p`` it pipelines a long message (and a short one) through the
CAM-Chord implicit tree and compares the measured worst-member rate
with the analytic prediction.

Expected shape: for messages much longer than the tree is deep, the
measured/analytic ratio sits near 1.0 (validating Figure 6's model);
for short messages propagation dominates and the ratio collapses —
the regime where latency (Figures 9-11) matters more than throughput.
"""

from __future__ import annotations

from random import Random

from repro.experiments.common import (
    ExperimentScale,
    FigureResult,
    Series,
    bandwidth_group,
)
from repro.metrics.throughput import sustainable_throughput
from repro.multicast.session import SystemKind
from repro.sim.transfer import simulate_tree_transfer

PER_LINK_SWEEP = (25.0, 50.0, 100.0)
LONG_MESSAGE_KBITS = 100_000.0  # ~12 MB video segment
SHORT_MESSAGE_KBITS = 8.0       # one small packet burst


def run(scale: ExperimentScale, seed: int = 0) -> FigureResult:
    """Regenerate the timed-vs-analytic comparison."""
    result = FigureResult(
        figure="extH",
        title="Timed pipeline throughput vs the analytic bottleneck model",
    )
    # packet-level timing is O(packets * n); keep the group moderate
    sub_scale = ExperimentScale(
        name=f"{scale.name}-timed",
        group_size=min(scale.group_size, 10_000),
        sources=scale.sources,
        protocol_size=scale.protocol_size,
        space_bits=scale.space_bits,
    )
    rng = Random(seed)
    analytic_series = Series(label="analytic bottleneck (kbps)")
    long_series = Series(label="measured long-message (kbps)")
    ratio_series = Series(label="measured/analytic (long)")
    short_series = Series(label="measured short-message (kbps)")
    for per_link in PER_LINK_SWEEP:
        group = bandwidth_group(
            SystemKind.CAM_CHORD, sub_scale, per_link_kbps=per_link, seed=seed
        )
        analytic_values = []
        long_values = []
        short_values = []
        for _ in range(sub_scale.sources):
            source = group.random_member(rng)
            tree = group.multicast_from(source)
            analytic_values.append(sustainable_throughput(tree, group.snapshot))
            long = simulate_tree_transfer(
                tree, group.snapshot, LONG_MESSAGE_KBITS, packet_count=64
            )
            long_values.append(long.measured_throughput_kbps)
            short = simulate_tree_transfer(
                tree, group.snapshot, SHORT_MESSAGE_KBITS, packet_count=4
            )
            short_values.append(short.measured_throughput_kbps)
        analytic = sum(analytic_values) / len(analytic_values)
        long_measured = sum(long_values) / len(long_values)
        analytic_series.add(per_link, analytic)
        long_series.add(per_link, long_measured)
        ratio_series.add(per_link, long_measured / analytic)
        short_series.add(per_link, sum(short_values) / len(short_values))
    result.series.extend(
        [analytic_series, long_series, ratio_series, short_series]
    )
    result.notes.append(
        "The measured/analytic ratio should sit in [0.85, 1.0] for the "
        "long message (pipelining converges to the fluid model) and the "
        "short-message rate should fall far below it (startup latency)."
    )
    return result
