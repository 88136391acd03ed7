"""Every workload and metric the benchmark names, in one place.

``BENCHMARK.json`` at the repo root is generated from this module
(:func:`benchmark_json`; ``bench/tests`` checks the two agree), and
``compare`` reads its bounds from here.  The driver's file has a fixed
shape — name, unit, better, bound — so everything else a reader needs
(time domain, which workloads define a metric, which end-to-end number
a layer metric should move) lives here and in ``bench/README.md``.

Time domains: ``host`` is wall time (or memory) of this program —
noisy, judged against a bound; ``sim`` is what the modelled system
does — deterministic for a fixed seed, must repeat exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

TREE_PAPER = "tree_paper"
PLANE_STEADY = "plane_steady"
PLANE_CHURN = "plane_churn"
FAILOVER_CAMPAIGN = "failover_campaign"
BACKUP_INSTALL = "backup_install"

#: name -> why the workload exists (one line, <= 200 chars: the
#: driver's limit; the README has the long form)
WORKLOADS: dict[str, str] = {
    TREE_PAPER: (
        "The paper's fig6 point at n=100,000 (CAM vs uniform fanout): "
        "large trees, so the kernel and the snapshot build dominate; "
        "plane, engine and backup do nothing."
    ),
    PLANE_STEADY: (
        "Read-mostly service plane, ~76% schedule-cache hits: pump/commit, "
        "sequence ledger, uplink budget and engine heap dominate; "
        "the kernel only builds small trees on misses."
    ),
    PLANE_CHURN: (
        "Same plane with membership writes beside sends, ~19% hits: every "
        "miss rebuilds a group and a template, so the service registry "
        "and the small-tree kernel regime show."
    ),
    FAILOVER_CAMPAIGN: (
        "40 fault plans run down the repair and the failover path: live "
        "protocol peers on the DES engine and network, judged by the "
        "fault oracles."
    ),
    BACKUP_INSTALL: (
        "Backup-plan build (write) and orphan queries (read) at n=2,000: "
        "the only workload where multicast.backup dominates; the build "
        "is quadratic in time and memory."
    ),
}

ALL = tuple(WORKLOADS)
TREE_AND_PLANE = (TREE_PAPER, PLANE_STEADY, PLANE_CHURN)
PLANES = (PLANE_STEADY, PLANE_CHURN)

#: ``bound`` value of a sim metric: equal to 1e-9 relative, same seed
EXACT = "exact"
EXACT_RTOL = 1e-9


@dataclass(frozen=True)
class EndToEnd:
    """One end-to-end metric.

    ``bound`` is the share of the reference by which the median may
    worsen before ``compare`` calls it a regression (``EXACT`` for sim
    metrics, an absolute ceiling for ``sim_ref_error``).
    """

    name: str
    unit: str
    domain: str  # "host" | "sim" | "-"
    better: str  # "lower" | "higher"
    bound: "float | str"
    workloads: tuple[str, ...]
    definition: str
    absolute: bool = False  # bound is a ceiling on the value itself


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "host", "lower", 0.20, ALL,
        "imports + input generation before the first timed rep (median "
        "over fresh processes)",
    ),
    EndToEnd(
        "wall_s", "s", "host", "lower", 0.10, ALL,
        "median rep wall time: everything a user runs per rep, oracles "
        "included",
    ),
    EndToEnd(
        "deliveries_per_wall_s", "1/s", "host", "higher", 0.10, TREE_AND_PLANE,
        "members reached (source excluded) per rep / wall_s",
    ),
    EndToEnd(
        "plan_wall_p50_ms", "ms", "host", "lower", 0.10, (FAILOVER_CAMPAIGN,),
        "per-plan (both paths) wall time pooled over reps, median",
    ),
    EndToEnd(
        "plan_wall_p90_ms", "ms", "host", "lower", 0.15, (FAILOVER_CAMPAIGN,),
        "per-plan (both paths) wall time pooled over reps, p90",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "host", "lower", 0.10, ALL,
        "peak resident set of the workload's own subprocess",
    ),
    EndToEnd(
        "fail_share", "ratio", "-", "lower", 0.0, ALL,
        "failed / attempted operations (trees, sends, plans, routes)",
        absolute=True,
    ),
    EndToEnd(
        "sim_cam_gain", "ratio", "sim", "higher", EXACT, (TREE_PAPER,),
        "mean(CAM-Chord, CAM-Koorde throughput) / mean(Chord, Koorde)",
    ),
    EndToEnd(
        "sim_ref_error", "ratio", "sim", "lower", 0.01, (TREE_PAPER,),
        "max relative deviation of the four throughputs from the "
        "x=17.5 / x=16 rows of results/paper/fig6.txt",
        absolute=True,
    ),
    EndToEnd(
        "sim_path_len_mean", "hops", "sim", "lower", EXACT, (TREE_PAPER,),
        "mean average_path_length over the 8 trees",
    ),
    EndToEnd(
        "sim_delivery_p50_s", "s", "sim", "lower", EXACT, PLANES,
        "origin -> member delivery latency over all receipts, median",
    ),
    EndToEnd(
        "sim_delivery_p99_s", "s", "sim", "lower", EXACT, PLANES,
        "origin -> member delivery latency over all receipts, p99",
    ),
    EndToEnd(
        "sim_deliveries_per_s", "1/s", "sim", "higher", EXACT, PLANES,
        "PlaneReport.deliveries_per_sec()",
    ),
    EndToEnd(
        "sim_failover_gap_p50_s", "s", "sim", "lower", EXACT,
        (FAILOVER_CAMPAIGN,),
        "failover-path gap over paired affected members, median",
    ),
    EndToEnd(
        "sim_failover_gap_max_s", "s", "sim", "lower", EXACT,
        (FAILOVER_CAMPAIGN,),
        "failover-path gap over paired affected members, max",
    ),
    EndToEnd(
        "sim_repair_gap_p50_s", "s", "sim", "lower", EXACT,
        (FAILOVER_CAMPAIGN,),
        "repair-path gap over paired affected members, median",
    ),
)


@dataclass(frozen=True)
class PerLayer:
    """One metric of a single layer, from the traced run.

    ``moves`` names the end-to-end metric(s) a change to this number
    should move, on the ``workloads`` listed — written down before any
    measurement, so a later claim can be checked against it.
    """

    name: str
    unit: str
    better: str
    workloads: tuple[str, ...]
    moves: str
    estimate: bool = False  # count x calibrated unit cost, not a span


_TREES = (TREE_PAPER, BACKUP_INSTALL)
_FAULTS = (FAILOVER_CAMPAIGN,)
_BACKUP = (BACKUP_INSTALL,)
_RATE = "deliveries_per_wall_s"

PER_LAYER: tuple[PerLayer, ...] = (
    PerLayer("capacity.draw_s", "s", "lower", (TREE_PAPER,), "wall_s"),
    PerLayer("overlay.snapshot_s", "s", "lower", _TREES, f"wall_s, {_RATE}, peak_rss_mb"),
    PerLayer("overlay.snapshot_builds", "count", "lower", _TREES, "wall_s"),
    PerLayer("overlay.build_s", "s", "lower", _TREES, f"wall_s, {_RATE}"),
    PerLayer("kernel.tree_s", "s", "lower", _TREES, _RATE),
    PerLayer("kernel.trees", "count", "lower", ALL[:3] + _BACKUP, _RATE),
    PerLayer("kernel.ns_per_delivery", "ns", "lower", (TREE_PAPER,), _RATE),
    PerLayer("kernel.resolves", "count", "lower", ALL[:3], _RATE),
    PerLayer("kernel.resolves_saved", "count", "higher", ALL[:3], _RATE),
    PerLayer("kernel.small_tree_us", "us", "lower", PLANES, _RATE, estimate=True),
    PerLayer("kernel.est_s", "s", "lower", PLANES, _RATE, estimate=True),
    PerLayer("metrics.pass_s", "s", "lower", (TREE_PAPER,), "wall_s"),
    PerLayer("metrics.array_passes", "count", "lower", (TREE_PAPER,), "wall_s"),
    PerLayer("oracle.check_s", "s", "lower", _TREES, "wall_s"),
    PerLayer("workloads.generate_s", "s", "lower", PLANES, "setup_s"),
    PerLayer("plane.register_s", "s", "lower", PLANES, "wall_s"),
    PerLayer("plane.replay_s", "s", "lower", PLANES, "wall_s"),
    PerLayer("plane.drain_s", "s", "lower", PLANES, f"{_RATE}, wall_s"),
    PerLayer("plane.verify_s", "s", "lower", PLANES, "wall_s"),
    PerLayer("plane.us_per_delivery", "us", "lower", PLANES, _RATE),
    PerLayer("plane.self_est_s", "s", "lower", PLANES, _RATE, estimate=True),
    PerLayer("plane.est_coverage", "ratio", "higher", PLANES, "-", estimate=True),
    PerLayer("plane.sends", "count", "higher", PLANES, _RATE),
    PerLayer("plane.deliveries", "count", "higher", PLANES, _RATE),
    PerLayer("plane.sched_hits", "count", "higher", PLANES, _RATE),
    PerLayer("plane.sched_misses", "count", "lower", PLANES, _RATE),
    PerLayer("plane.sched_invalidations", "count", "lower", PLANES, _RATE),
    PerLayer("plane.hit_ratio", "ratio", "higher", PLANES, _RATE),
    PerLayer("plane.wavefront_commits", "count", "lower", PLANES, _RATE),
    PerLayer("plane.deferrals", "count", "lower", PLANES, "sim_delivery_p99_s"),
    PerLayer("plane.max_queue_depth", "count", "lower", PLANES, "sim_delivery_p99_s"),
    PerLayer(
        "plane.backlog_growth", "ratio", "lower", PLANES,
        "sim_delivery_p99_s, sim_deliveries_per_s",
    ),
    PerLayer("service.membership_ops", "count", "lower", PLANES, _RATE),
    PerLayer("service.rebuild_us", "us", "lower", PLANES, _RATE, estimate=True),
    PerLayer("service.est_s", "s", "lower", PLANES, _RATE, estimate=True),
    PerLayer("engine.events", "count", "lower", PLANES, f"{_RATE}, wall_s"),
    PerLayer("engine.event_ns", "ns", "lower", PLANES, f"{_RATE}, wall_s", estimate=True),
    PerLayer("engine.est_s", "s", "lower", PLANES, f"{_RATE}, wall_s", estimate=True),
    PerLayer("transfer.reservations", "count", "lower", PLANES, _RATE),
    PerLayer("transfer.deferral_ratio", "ratio", "lower", PLANES, "sim_delivery_p99_s"),
    PerLayer("transfer.reserve_ns", "ns", "lower", PLANES, _RATE, estimate=True),
    PerLayer("transfer.est_s", "s", "lower", PLANES, _RATE, estimate=True),
    PerLayer("faults.generate_s", "s", "lower", _FAULTS, "setup_s"),
    PerLayer("faults.repair_s", "s", "lower", _FAULTS, "wall_s, plan_wall_p50_ms"),
    PerLayer("faults.failover_s", "s", "lower", _FAULTS, "wall_s, plan_wall_p50_ms"),
    PerLayer("faults.plans", "count", "higher", _FAULTS, "wall_s"),
    PerLayer("faults.violations", "count", "lower", _FAULTS, "fail_share"),
    PerLayer("faults.affected_members", "count", "lower", _FAULTS, "sim_failover_gap_p50_s"),
    PerLayer("faults.repair_wait_p50_s", "s", "lower", _FAULTS, "sim_repair_gap_p50_s"),
    PerLayer("backup.plan_s", "s", "lower", _BACKUP, "wall_s, peak_rss_mb"),
    PerLayer("backup.routes", "count", "higher", _BACKUP, "wall_s"),
    PerLayer("backup.candidates", "count", "lower", _BACKUP, "wall_s, peak_rss_mb"),
    PerLayer("backup.us_per_route", "us", "lower", _BACKUP, "wall_s"),
    PerLayer("backup.query_us", "us", "lower", _BACKUP, "wall_s"),
    PerLayer("trace.enabled_ratio", "ratio", "lower", (PLANE_STEADY,), "-"),
    PerLayer("trace.events", "count", "lower", (PLANE_STEADY,), "-"),
    PerLayer("trace.coverage", "ratio", "higher", ALL, "-"),
    PerLayer("trace.harness_overhead", "ratio", "lower", ALL, "-"),
)

END_TO_END_BY_NAME = {metric.name: metric for metric in END_TO_END}
PER_LAYER_BY_NAME = {metric.name: metric for metric in PER_LAYER}

#: timed reps of ``bench run`` per workload: fixed, the same on every
#: commit, each workload's reps under 30 s.  If time has to be cut, cut
#: these (floor 3), never the sizes.
REPS: dict[str, int] = {
    TREE_PAPER: 3,
    PLANE_STEADY: 7,
    PLANE_CHURN: 7,
    FAILOVER_CAMPAIGN: 3,
    BACKUP_INSTALL: 5,
}

#: untraced/traced rep pairs of ``bench run --trace`` per workload
TRACED_PAIRS = 3

# -- the driver's file ------------------------------------------------------
#
# BENCHMARK.json has a fixed shape, and three of its rules do not fit the
# end-to-end table above: every ``end_to_end`` metric is printed by every
# workload, none may ever be 0, and its bound is checked on medians over
# runs with *different* seeds.  So the driver's form measures for a given
# time (at least three reps) and bounds three numbers; everything else
# the table names goes out unbounded with the per-layer metrics.

#: how long one driver run measures
RUN_SECONDS = 12

#: (name, unit, better, bound) of the driver's ``end_to_end`` list.
#: ``work_per_wall_s`` is ``deliveries_per_wall_s`` generalised to the
#: workloads that deliver nothing — work is deliveries (tree_paper,
#: plane_*), live peers bootstrapped over all plan runs
#: (failover_campaign), backup routes (backup_install) — and, unlike
#: ``wall_s``, holds steady when the seed draws other fault plans.  Only
#: the driver's form prints it.  The bounds are wider than ``compare``'s
#: because inputs change with the seed.
DRIVER_END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("work_per_wall_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)


def driver_per_layer() -> tuple[tuple[str, str, str], ...]:
    """(name, unit, better) of everything a ``--trace 1`` run prints:
    the per-layer metrics, then the end-to-end metrics the driver's
    ``end_to_end`` list has no room for.  A workload that does not
    define a metric prints 0."""
    bounded = {name for name, *_ in DRIVER_END_TO_END} | {"fail_share"}
    layered = [(m.name, m.unit, m.better) for m in PER_LAYER]
    unbounded = [
        (m.name, m.unit, m.better) for m in END_TO_END if m.name not in bounded
    ]
    return tuple(layered + unbounded)


def benchmark_json() -> dict:
    """The exact content of the repo-root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "bench"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in DRIVER_END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in driver_per_layer()
        ],
    }
