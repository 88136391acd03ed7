"""``tree_paper``: the four fig6 sweep points at matched fanout.

CAM-Chord and CAM-Koorde at p = 40 kbps (mean fanout 700/40 = 17.5),
Chord and Koorde at k = 16, composed exactly as
``fig06_throughput.run_point`` composes them, at the paper's n.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from random import Random
from typing import Any

from bench.spans import Recorder
from bench.workloads import Rep
from repro.experiments.common import (
    SCALES,
    ExperimentScale,
    bandwidth_draws,
    bandwidth_members,
    members_snapshot,
)
from repro.experiments.fig06_throughput import BASELINE_PER_LINK, MEAN_BANDWIDTH
from repro.metrics.throughput import sustainable_throughput
from repro.metrics.tree_stats import summarize_tree
from repro.multicast.session import MulticastGroup
from repro.systems import SystemDescriptor, all_descriptors

CAM_PER_LINK_KBPS = 40.0
BASELINE_FANOUT = 16.0

#: the committed full-scale figure the throughputs are checked against
REFERENCE = Path(__file__).resolve().parents[2] / "results" / "paper" / "fig6.txt"

FULL_SCALE = replace(SCALES["paper"], sources=2)
SMOKE_SCALE = ExperimentScale("smoke", 2_000, 2, 0, space_bits=14)


def parse_fig6(text: str) -> dict[str, dict[float, float]]:
    """``{series label: {x: throughput}}`` from a rendered fig6 block
    (``-- label`` headers, then ``x  y`` rows; notes are skipped)."""
    series: dict[str, dict[float, float]] = {}
    current: dict[float, float] | None = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("-- "):
            current = series.setdefault(stripped[3:].strip(), {})
            continue
        fields = stripped.split()
        if current is None or len(fields) != 2:
            continue
        try:
            current[float(fields[0])] = float(fields[1])
        except ValueError:
            continue
    return series


@dataclass
class Inputs:
    seed: int
    scale: ExperimentScale
    #: (system, sweep knob, x on the fig6 axis, committed throughput)
    points: list[tuple[SystemDescriptor, float, float, float]]
    setup_parts: dict[str, float] = field(default_factory=dict)


def setup(seed: int, smoke: bool) -> Inputs:
    reference = parse_fig6(REFERENCE.read_text())
    points = []
    for system in all_descriptors():
        knob = CAM_PER_LINK_KBPS if system.capacity_aware else BASELINE_FANOUT
        x = system.fanout.configured_average_fanout(knob, MEAN_BANDWIDTH)
        points.append((system, knob, x, reference[system.kind.value][x]))
    return Inputs(seed, SMOKE_SCALE if smoke else FULL_SCALE, points)


def run_rep(inputs: Inputs, rec: Recorder) -> list[dict[str, Any]]:
    scale, seed = inputs.scale, inputs.seed
    rows = []
    for system, knob, _x, committed in inputs.points:
        per_link, uniform_fanout = system.fanout.group_build_args(
            knob, BASELINE_PER_LINK
        )
        request = bandwidth_members(system, scale, per_link_kbps=per_link, seed=seed)
        with rec.span("capacity.draw", call="bandwidth_draws"):
            bandwidth_draws(request.bandwidth, request.count, request.seed)
        with rec.span("overlay.snapshot", call="members_snapshot"):
            snapshot = members_snapshot(request)
        with rec.span("overlay.build", call="MulticastGroup.from_snapshot"):
            group = MulticastGroup.from_snapshot(
                system, snapshot, uniform_fanout=uniform_fanout
            )
        with rec.span("oracle.check", call="member set"):
            members = set(snapshot.identifiers)
        # run_point averages over sources drawn from Random(0)
        rng = Random(0)
        throughputs, path_lengths, receivers, failed = [], [], 0, 0
        for _ in range(scale.sources):
            source = group.random_member(rng)
            with rec.span("kernel.tree", call="MulticastGroup.multicast_from"):
                tree = group.multicast_from(source)
            with rec.span("metrics.pass", call="sustainable_throughput+summarize_tree"):
                throughputs.append(sustainable_throughput(tree, group.snapshot))
                stats = summarize_tree(tree)
            with rec.span("oracle.check", call="verify_exactly_once"):
                try:
                    tree.verify_exactly_once(members)
                    complete = stats.coverage_complete(len(group))
                except AssertionError:
                    complete = False
            failed += not complete
            path_lengths.append(stats.average_path_length)
            receivers += stats.receivers - 1
        rows.append(
            {
                "system": system.kind.value,
                "capacity_aware": system.capacity_aware,
                "throughput": sum(throughputs) / len(throughputs),
                "committed": committed,
                "path_lengths": path_lengths,
                "deliveries": receivers,
                "trees": scale.sources,
                "failed": failed,
                "snapshot": id(snapshot),
            }
        )
    return rows


def summarize(inputs: Inputs, rows: list[dict[str, Any]], delta) -> Rep:
    cam = [row["throughput"] for row in rows if row["capacity_aware"]]
    base = [row["throughput"] for row in rows if not row["capacity_aware"]]
    path_lengths = [length for row in rows for length in row["path_lengths"]]
    deliveries = sum(row["deliveries"] for row in rows)
    return Rep(
        work=deliveries,
        attempted=sum(row["trees"] for row in rows),
        failed=sum(row["failed"] for row in rows),
        sim={
            "sim_cam_gain": (sum(cam) / len(cam)) / (sum(base) / len(base)),
            "sim_ref_error": max(
                abs(row["throughput"] - row["committed"]) / row["committed"]
                for row in rows
            ),
            "sim_path_len_mean": sum(path_lengths) / len(path_lengths),
        },
        counts={
            "deliveries": deliveries,
            "kernel.trees": delta.kernel_trees,
            "kernel.resolves": delta.kernel_resolves,
            "kernel.resolves_saved": delta.kernel_resolves_saved,
            "metrics.array_passes": delta.array_passes,
            # chord and koorde share one membership, so 3 of 4
            "overlay.snapshot_builds": len({row["snapshot"] for row in rows}),
        },
    )


def layers(inputs: Inputs, rep: Rep, spans: dict[str, float]) -> dict:
    return {
        "capacity.draw_s": spans["capacity.draw"],
        "overlay.snapshot_s": spans["overlay.snapshot"],
        "overlay.build_s": spans["overlay.build"],
        "kernel.tree_s": spans["kernel.tree"],
        "kernel.ns_per_delivery": spans["kernel.tree"] / rep.counts["deliveries"] * 1e9,
        "metrics.pass_s": spans["metrics.pass"],
        "oracle.check_s": spans["oracle.check"],
    }
