"""``plane_steady`` / ``plane_churn``: the service plane, read-mostly
and with membership writes beside the sends.

Open loop in *simulated* time: events fire on the generated schedule
whatever the backlog, and latency counts from ``origin_time`` — when
the send was due — so uplink deferral is included.  Replayed as fast
as the host allows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from time import perf_counter
from typing import Any

from bench import stats
from bench.spans import Recorder
from bench.workloads import Rep
from repro.capacity.distributions import UniformBandwidth
from repro.multicast.plane import ServicePlane
from repro.multicast.service import MulticastService
from repro.sim.engine import Simulator
from repro.sim.transfer import UplinkBudget
from repro.trace.tracer import TRACER
from repro.workloads import (
    ServiceWorkload,
    ServiceWorkloadSpec,
    generate_service_workload,
)

SPACE_BITS = 14

FULL = dict(groups=60, hosts=2000, group_size=32, horizon_s=40.0)
SMOKE = dict(groups=8, hosts=200, group_size=8, horizon_s=10.0)

#: calibration sizes of ``kernel.small_tree_us`` / ``service.rebuild_us``
CAL_GROUPS = 50
CAL_SOURCES = 4
CAL_REBUILDS = 100


def spec_for(churn: bool, smoke: bool) -> ServiceWorkloadSpec:
    return ServiceWorkloadSpec(
        **(SMOKE if smoke else FULL),
        send_interval_s=0.25,
        churn_rate=0.5 if churn else 0.0,
        mean_hold_s=120.0 if churn else None,
        message_kbits=8.0,
        bandwidths=UniformBandwidth(),
    )


@dataclass
class Inputs:
    seed: int
    spec: ServiceWorkloadSpec
    workload: ServiceWorkload
    steady: bool
    setup_parts: dict[str, float] = field(default_factory=dict)


def setup(seed: int, smoke: bool, churn: bool) -> Inputs:
    spec = spec_for(churn, smoke)
    started = perf_counter()
    workload = generate_service_workload(spec, seed)
    generate_s = perf_counter() - started
    return Inputs(
        seed, spec, workload, not churn, {"workloads.generate_s": generate_s}
    )


def run_rep(inputs: Inputs, rec: Recorder) -> dict[str, Any]:
    workload = inputs.workload
    plane = ServicePlane(space_bits=SPACE_BITS)
    with rec.span("plane.register", call="register_host", calls=len(workload.hosts)):
        for name, kbps in workload.hosts:
            plane.register_host(name, kbps)
    with rec.span("plane.replay", call="replay"):
        plane.replay(workload.events)
    with rec.span("plane.drain", call="drain"):
        plane.drain()
    with rec.span("plane.verify", call="verify_quiesced"):
        try:
            plane.verify_quiesced()
            failed = 0
        except AssertionError:
            failed = _count_failures(plane)
    with rec.span("plane.report", call="report"):
        report = plane.report()
    return {"plane": plane, "report": report, "failed": failed}


def _count_failures(plane: ServicePlane) -> int:
    """Sends short of their frozen membership, plus every gapped cursor,
    duplicate and unexpected delivery the audit names."""
    failed = 0
    for receipt in plane.receipts():
        try:
            receipt.verify_complete()
            failed += not receipt.complete
        except AssertionError:
            failed += 1
    audit = plane.audit()
    return max(failed + len(audit.gaps) + audit.dups + audit.unexpected, 1)


def summarize(inputs: Inputs, state: dict[str, Any], delta) -> Rep:
    plane: ServicePlane = state["plane"]
    report = state["report"]
    third = inputs.spec.horizon_s / 3.0
    latencies: list[float] = []
    early: list[float] = []
    late: list[float] = []
    for receipt in plane.receipts():
        origin = receipt.origin_time
        source = receipt.source
        sample = [
            when - origin
            for host, when in receipt.delivered.items()
            if host != source
        ]
        latencies.extend(sample)
        if origin < third:
            early.extend(sample)
        elif origin >= 2.0 * third:
            late.extend(sample)
    sends = sum(row["sends"] for row in report.rows)
    counts = inputs.workload.counts()
    lookups = delta.schedule_cache_hits + delta.schedule_cache_misses
    reservations = plane.budget.reservations()
    return Rep(
        work=report.total_deliveries,
        attempted=sends,
        failed=state["failed"],
        sim={
            "sim_delivery_p50_s": stats.percentile(latencies, 0.50),
            "sim_delivery_p99_s": stats.percentile(latencies, 0.99),
            "sim_deliveries_per_s": report.deliveries_per_sec(),
        },
        counts={
            "deliveries": report.total_deliveries,
            "latency_samples": len(latencies),
            "plane.sends": sends,
            "plane.deliveries": report.total_deliveries,
            "plane.sched_hits": delta.schedule_cache_hits,
            "plane.sched_misses": delta.schedule_cache_misses,
            "plane.sched_invalidations": delta.schedule_cache_invalidations,
            "plane.hit_ratio": delta.schedule_cache_hits / lookups,
            "plane.wavefront_commits": delta.wavefront_commits,
            "plane.deferrals": report.total_deferrals,
            "plane.max_queue_depth": max(
                row["max_queue_depth"] for row in report.rows
            ),
            "plane.backlog_growth": stats.percentile(late, 0.99)
            / stats.percentile(early, 0.99),
            "kernel.trees": delta.kernel_trees,
            "kernel.resolves": delta.kernel_resolves,
            "kernel.resolves_saved": delta.kernel_resolves_saved,
            "service.membership_ops": sum(
                counts.get(action, 0) for action in ("create", "join", "leave")
            ),
            "engine.events": plane.simulator.events_processed,
            "transfer.reservations": reservations,
            "transfer.deferral_ratio": plane.budget.deferrals() / reservations,
        },
    )


def layers(inputs: Inputs, rep: Rep, spans: dict[str, float]) -> dict:
    return {
        "workloads.generate_s": inputs.setup_parts["workloads.generate_s"],
        "plane.register_s": spans["plane.register"],
        "plane.replay_s": spans["plane.replay"],
        "plane.drain_s": spans["plane.drain"],
        "plane.verify_s": spans["plane.verify"],
        "plane.us_per_delivery": spans["plane.drain"] / rep.counts["deliveries"] * 1e6,
    }


# -- calibrated unit costs --------------------------------------------------
#
# plane.drain() has no public boundary inside it, so the drain is
# decomposed as count x unit cost: the counts are exact (perf counters,
# the simulator, the uplink ledger), the unit costs come from standalone
# calls to the same public functions at this workload's sizes.  The
# products are estimates — cache state, heap sizes and the mix of cold
# and warm calls differ inside the real drain — and are labelled so.


def _timed(action) -> float:
    started = perf_counter()
    action()
    return perf_counter() - started


def _calibrate_service(inputs: Inputs) -> tuple[float, float]:
    """``(kernel.small_tree_us, service.rebuild_us)``.

    Small trees: per fresh group, the mean ``multicast_from`` over
    ``CAL_SOURCES`` sources (the first call also fills the overlay's
    slot tables, as the first template of an epoch does), then the
    median over ``CAL_GROUPS`` groups.  Rebuild: median cost of one
    membership operation, from ``join_group`` + ``leave_group`` pairs
    on a group of the workload's size.
    """
    spec = inputs.spec
    rng = Random(inputs.seed)
    service = MulticastService(SPACE_BITS)
    for name, kbps in inputs.workload.hosts:
        service.register_host(name, kbps)
    names = [name for name, _ in inputs.workload.hosts]
    per_group = []
    for index in range(CAL_GROUPS):
        members = rng.sample(names, spec.group_size)
        group = service.create_group(
            f"cal{index}", members, kind=spec.kind, per_link_kbps=spec.per_link_kbps
        )
        sources = [
            group.snapshot.node_at(service.member_ident(f"cal{index}", host))
            for host in members[:CAL_SOURCES]
        ]
        total = sum(
            _timed(lambda source=source: group.multicast_from(source))
            for source in sources
        )
        per_group.append(total / len(sources))
    outsider = next(
        name for name in names if name not in service.members_of("cal0")
    )
    rebuilds = []
    for _ in range(CAL_REBUILDS):
        started = perf_counter()
        service.join_group("cal0", outsider)
        service.leave_group("cal0", outsider)
        rebuilds.append((perf_counter() - started) / 2.0)
    return stats.median(per_group) * 1e6, stats.median(rebuilds) * 1e6


def _calibrate_engine(events: int) -> float:
    """``engine.event_ns``: schedule + run ``events`` no-op events."""
    simulator = Simulator()
    rng = Random(0)
    delays = [rng.random() for _ in range(events)]

    def noop() -> None:
        return None

    def drive() -> None:
        for delay in delays:
            simulator.call_later(delay, noop)
        simulator.run_until_idle()

    return _timed(drive) / events * 1e9


def _calibrate_transfer(reservations: int, hosts: int) -> float:
    """``transfer.reserve_ns``: ``reservations`` reserve() calls spread
    over ``hosts`` keys of a fresh ledger."""
    budget = UplinkBudget()
    keys = [f"host{i:05d}" for i in range(hosts)]

    def drive() -> None:
        now = 0.0
        for index in range(reservations):
            budget.reserve(keys[index % hosts], now, 0.016)
            now += 0.0001

    return _timed(drive) / reservations * 1e9


def extras(
    inputs: Inputs, rep: Rep, layers: dict, walls: list[float], layer_self: dict
) -> dict:
    """Unit costs and estimates of one traced run; also moves the
    estimated shares of the drain out of ``layer_self["plane"]``."""
    counts = rep.counts
    small_tree_us, rebuild_us = _calibrate_service(inputs)
    event_ns = _calibrate_engine(int(counts["engine.events"]))
    reserve_ns = _calibrate_transfer(
        int(counts["transfer.reservations"]), inputs.spec.hosts
    )
    estimates = {
        "kernel.est_s": counts["kernel.trees"] * small_tree_us / 1e6,
        "service.est_s": counts["service.membership_ops"] * rebuild_us / 1e6,
        "engine.est_s": counts["engine.events"] * event_ns / 1e9,
        "transfer.est_s": counts["transfer.reservations"] * reserve_ns / 1e9,
    }
    explained = sum(estimates.values())
    drain_s = layers["plane.drain_s"]
    layer_self["plane"] -= explained
    for key, value in estimates.items():
        layer_self[key.split(".", 1)[0]] = value
    out = {
        "kernel.small_tree_us": small_tree_us,
        "service.rebuild_us": rebuild_us,
        "engine.event_ns": event_ns,
        "transfer.reserve_ns": reserve_ns,
        **estimates,
        "plane.self_est_s": drain_s - explained,
        "plane.est_coverage": explained / drain_s,
    }
    if inputs.steady:
        out.update(_tracing_cost(inputs, stats.median(walls)))
    return out


def _tracing_cost(inputs: Inputs, wall_s: float) -> dict[str, float]:
    """One extra rep with ``repro.trace`` recording: what the
    observability surface costs when it is on."""
    TRACER.enable()
    try:
        traced_wall = _timed(lambda: run_rep(inputs, Recorder(False)))
        events = len(TRACER)
    finally:
        TRACER.disable()
        TRACER.clear()
    return {"trace.enabled_ratio": traced_wall / wall_s, "trace.events": events}
