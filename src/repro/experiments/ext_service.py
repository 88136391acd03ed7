"""Extension N: sustained service-plane throughput vs group count x churn.

The paper establishes one group's dissemination tree; a deployment
runs *hundreds* of groups concurrently over one shared host population
(Section 2's per-group overlays).  This experiment drives the
event-driven service plane (:class:`repro.multicast.plane.ServicePlane`)
with generated multi-group workloads — groups arriving over time with
exponential holding times, per-group send cadences, and poisson member
join/leave churn firing **mid-dissemination** — and measures the
sustained delivery rate the plane achieves as the group count and the
churn rate grow.

Every point is judged by the plane's quiesce oracles before it may
report a number: every send must complete against its frozen send-time
membership (mid-stream leavers still receive in-flight sends; joiners
are obligated only from the next sequence), every per-member sequence
cursor must audit to zero gaps, and no duplicate deliveries may occur.
At ``default``/``paper`` scales the heaviest cell must sustain at
least :data:`CONCURRENCY_TARGET` concurrent groups with churn active.

Sweep-decomposed (``sweep`` / ``run_point`` / ``assemble``), so
``--jobs N`` fans points over the parallel engine with byte-identical
output.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.experiments.common import (
    ExperimentScale,
    FigureResult,
    Series,
    point_rng,
)
from repro.experiments.common import run_sweep

#: group-count sweep per scale
GROUP_COUNTS = {
    "bench": (12, 30),
    "quick": (30, 60),
    "default": (60, 240),
    "paper": (120, 240, 480),
}

#: churn-rate sweep (member join/leave events per group-second)
CHURN_RATES = {
    "bench": (0.0, 0.1),
    "quick": (0.0, 0.1),
    "default": (0.0, 0.08),
    "paper": (0.0, 0.08),
}

#: concurrent-group floor the heaviest churned cell must sustain
CONCURRENCY_TARGET = {"bench": None, "quick": None, "default": 200, "paper": 200}

#: host population per scale (groups share these uplinks)
HOSTS = {"bench": 150, "quick": 250, "default": 600, "paper": 1000}

#: simulated seconds of workload per scale
HORIZON_S = {"bench": 40.0, "quick": 60.0, "default": 60.0, "paper": 90.0}

GROUP_SIZE = 6
SEND_INTERVAL_S = 5.0
MESSAGE_KBITS = 8.0


def sweep(scale: ExperimentScale) -> Sequence[tuple[int, float]]:
    """One point per (group count, churn rate) cell."""
    return [
        (groups, churn)
        for churn in CHURN_RATES[scale.name]
        for groups in GROUP_COUNTS[scale.name]
    ]


def _workload_spec(scale: ExperimentScale, groups: int, churn: float):
    from repro.workloads import ServiceWorkloadSpec

    horizon = HORIZON_S[scale.name]
    return ServiceWorkloadSpec(
        groups=groups,
        hosts=HOSTS[scale.name],
        group_size=GROUP_SIZE,
        horizon_s=horizon,
        send_interval_s=SEND_INTERVAL_S,
        churn_rate=churn,
        # exponential holding, mean 3x the horizon: arrivals stack up
        # near-fully concurrent while a tail of groups still drops
        # mid-run, exercising teardown under load
        mean_hold_s=horizon * 3.0,
        message_kbits=MESSAGE_KBITS,
    )


def _peak_concurrency(events) -> int:
    """Most groups alive at once (events are time-ordered)."""
    alive = 0
    peak = 0
    for event in events:
        if event.action == "create":
            alive += 1
            peak = max(peak, alive)
        elif event.action == "drop":
            alive -= 1
    return peak


def run_point(
    scale: ExperimentScale, seed: int, point: tuple[int, float]
) -> dict[str, Any]:
    """Generate, replay and audit one workload cell.

    The row holds only deterministic metrics — including the
    schedule-cache attribution from a :func:`repro.perf.scoped` delta
    around the plane phase, which is replay-exact and therefore
    identical whether the cell ran serially or inside a ``--jobs N``
    worker.  No wall-clock reading enters it, so the output diffs.
    """
    from repro import perf
    from repro.multicast.plane import ServicePlane
    from repro.workloads import generate_service_workload

    groups, churn = point
    spec = _workload_spec(scale, groups, churn)
    workload_seed = point_rng(seed, "extN", groups, churn).randrange(1 << 31)
    workload = generate_service_workload(spec, seed=workload_seed)

    with perf.scoped() as scope:
        plane = ServicePlane(space_bits=scale.space_bits)
        for name, kbps in workload.hosts:
            plane.register_host(name, kbps)
        plane.replay(workload.events)
        plane.drain()
        plane.verify_quiesced()  # completeness + zero gaps + zero dups
    delta = scope.delta

    report = plane.report()
    counts = workload.counts()
    churn_events = counts.get("join", 0) + counts.get("leave", 0)
    lookups = delta.schedule_cache_hits + delta.schedule_cache_misses
    row = {
        "groups": groups,
        "churn": churn,
        "peak_concurrent": _peak_concurrency(workload.events),
        "sends": counts.get("send", 0),
        "churn_events": churn_events,
        "drops": counts.get("drop", 0),
        "deliveries": report.total_deliveries,
        "deliveries_per_sec": report.deliveries_per_sec(),
        "deferrals": report.total_deferrals,
        "max_queue_depth": max(
            (row["max_queue_depth"] for row in report.rows), default=0
        ),
        "sched_cache": {
            "hits": delta.schedule_cache_hits,
            "misses": delta.schedule_cache_misses,
            "invalidations": delta.schedule_cache_invalidations,
            "wavefront_commits": delta.wavefront_commits,
            "hit_rate": (
                round(delta.schedule_cache_hits / lookups, 4)
                if lookups
                else 0.0
            ),
        },
        "audited": True,  # verify_quiesced raised otherwise
    }
    return row


def assemble(
    scale: ExperimentScale, seed: int, partials: Sequence[dict[str, Any]]
) -> FigureResult:
    """Fold cells into one deliveries/sec curve per churn rate."""
    result = FigureResult(
        figure="extN",
        title=(
            "Sustained service-plane deliveries/sec vs concurrent group "
            "count, per churn rate"
        ),
    )
    by_churn: dict[float, list[dict[str, Any]]] = {}
    for partial in partials:
        by_churn.setdefault(partial["churn"], []).append(partial)
    for churn in sorted(by_churn):
        rows = sorted(by_churn[churn], key=lambda row: row["groups"])
        series = Series(label=f"churn={churn:g}/group-s")
        for row in rows:
            series.add(float(row["groups"]), row["deliveries_per_sec"])
        result.series.append(series)
        for row in rows:
            result.notes.append(
                f"churn={churn:g} groups={row['groups']} "
                f"(peak concurrent {row['peak_concurrent']}): "
                f"{row['sends']} sends, {row['deliveries']} deliveries "
                f"({row['deliveries_per_sec']:.1f}/s), "
                f"{row['churn_events']} mid-stream join/leave, "
                f"{row['drops']} teardowns, "
                f"{row['deferrals']} uplink deferrals, "
                f"max queue {row['max_queue_depth']}"
            )
            cache = row.get("sched_cache")
            if cache and (cache["hits"] + cache["misses"]):
                result.notes.append(
                    f"churn={churn:g} groups={row['groups']} schedule "
                    f"cache: {cache['hits']}h/{cache['misses']}m "
                    f"({cache['hit_rate'] * 100:.0f}% hits, "
                    f"{cache['invalidations']} invalidated) over "
                    f"{cache['wavefront_commits']} wavefront commits"
                )
    target = CONCURRENCY_TARGET[scale.name]
    if target is not None:
        churned = [row for row in partials if row["churn"] > 0]
        best = max(row["peak_concurrent"] for row in churned)
        if best < target:
            raise AssertionError(
                f"extN must sustain >= {target} concurrent groups under "
                f"churn at scale {scale.name!r}; best cell peaked at {best}"
            )
        result.notes.append(
            f"Concurrency floor met: {best} concurrent groups under "
            f"churn (target {target})."
        )
    result.notes.append(
        "Every cell passed the quiesce oracles: all sends complete "
        "against frozen send-time membership, every sequence cursor "
        "audits to zero gaps, zero duplicate deliveries."
    )
    return result


def run(scale: ExperimentScale, seed: int = 0) -> FigureResult:
    """Serial composition of the sweep (the parallel engine maps it)."""
    return run_sweep(sweep, run_point, assemble, scale, seed)
