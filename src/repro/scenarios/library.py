"""The library of named scenarios.

Five canonical workload × fault × topology compositions, each a plain
:class:`~repro.scenarios.spec.ScenarioSpec` value (dump one with
``python -m repro.faults gen --scenario <name>``; every one is expressible
as a single JSON file and replayable from it):

* ``flash-crowd`` — a join surge during dissemination: Poisson joins
  arriving far faster than departures, the Section 5.1 "highly dynamic
  membership" case aimed at the join protocol.
* ``diurnal-churn`` — sinusoidal day/night churn (Lewis-Shedler
  thinned), half the departures graceful, aimed at the maintenance
  protocol's repair latency across swings.
* ``regional-partition`` — Hilbert geographic layout with
  distance-proportional latency, then correlated partitions between
  rank bands; geographic clustering makes ranks correlate with
  regions, so the cuts model a regional network failure.
* ``heavy-tail-capacities`` — bounded-Pareto capacities (most members
  near the floor, a few whales) under background churn and a loss
  burst; stresses the capacity-aware fanout logic where the capacity
  distribution is nothing like the paper's uniform default.
* ``multi-source-storm`` — many sources multicasting through a
  maintenance-RPC timeout storm; stresses implicit per-source trees
  (the Section 5.1 flooding argument) rather than one shared tree.

Sizes and windows are deliberately small (12–16 members, ≤ 22
simulated seconds): a full 5-scenario × 4-system matrix is a CI-sized
workload, and the fault campaign already covers scale elsewhere.
"""

from __future__ import annotations

from repro.capacity.distributions import HeavyTailCapacity, UniformCapacity
from repro.faults.plan import MAINTENANCE_KINDS, FaultEvent
from repro.scenarios.spec import (
    ChurnModel,
    FaultAxis,
    LatencySpec,
    ScenarioSpec,
    TopologyAxis,
    WorkloadAxis,
)


def _flash_crowd() -> ScenarioSpec:
    return ScenarioSpec(
        name="flash-crowd",
        description="join surge during dissemination (joins >> departures)",
        topology=TopologyAxis(size=12),
        workload=WorkloadAxis(
            multicasts=2,
            propagation_window=10.0,
            # 3:1 joins over departures.  Rates beyond ~0.4 joins/s on a
            # 12-member group drive the CAM rings past what 400 repair
            # rounds recover from (the uniform baselines survive) —
            # worth a dedicated study, but the library pins rates where
            # a healthy protocol must pass.
            churn=ChurnModel(kind="poisson", join_rate=0.3, depart_rate=0.1),
        ),
        faults=FaultAxis(fault_window=15.0),
    )


def _diurnal_churn() -> ScenarioSpec:
    return ScenarioSpec(
        name="diurnal-churn",
        description="sinusoidal day/night churn, half the departures graceful",
        topology=TopologyAxis(size=16),
        workload=WorkloadAxis(
            multicasts=2,
            propagation_window=10.0,
            churn=ChurnModel(
                kind="diurnal",
                trough_rate=0.02,
                peak_rate=0.4,
                period=20.0,
                crash_fraction=0.5,
            ),
        ),
        faults=FaultAxis(fault_window=20.0),
    )


def _regional_partition() -> ScenarioSpec:
    # Hilbert placement clusters nearby hosts into contiguous identifier
    # arcs, and live-peer ranks sort by identifier — so cutting rank
    # band {0..3} off from band {8..11} severs one geographic region
    # from another, the correlated-failure shape single random cuts
    # never produce.
    events = [
        FaultEvent(2.0, "partition", a=0, b=8),
        FaultEvent(2.0, "partition", a=1, b=9),
        FaultEvent(2.0, "partition", a=2, b=10),
        FaultEvent(9.0, "heal"),
        FaultEvent(12.0, "partition", a=4, b=12),
        FaultEvent(12.0, "partition", a=5, b=13),
        FaultEvent(18.0, "heal"),
    ]
    return ScenarioSpec(
        name="regional-partition",
        description="correlated partitions between geographic regions",
        topology=TopologyAxis(
            size=16,
            placement="hilbert",
            latency=LatencySpec(kind="geographic", base=0.01, per_unit=0.1),
        ),
        workload=WorkloadAxis(multicasts=2, propagation_window=10.0),
        faults=FaultAxis(fault_window=20.0, events=tuple(events)),
    )


def _heavy_tail_capacities() -> ScenarioSpec:
    events = [
        FaultEvent(3.0, "loss", rate=0.15),
        FaultEvent(10.0, "loss", rate=0.0),
    ]
    return ScenarioSpec(
        name="heavy-tail-capacities",
        description="bounded-Pareto capacities under churn and a loss burst",
        topology=TopologyAxis(
            size=16,
            capacities=HeavyTailCapacity(low=2, high=32, alpha=1.6),
        ),
        workload=WorkloadAxis(
            multicasts=2,
            propagation_window=10.0,
            churn=ChurnModel(kind="poisson", join_rate=0.15, depart_rate=0.15),
        ),
        faults=FaultAxis(fault_window=18.0, events=tuple(events)),
    )


def _multi_source_storm() -> ScenarioSpec:
    events = [
        FaultEvent(2.0, "kind_loss", kind=kind, rate=0.3)
        for kind in MAINTENANCE_KINDS
    ] + [
        FaultEvent(8.0, "kind_loss", kind=kind, rate=0.0)
        for kind in MAINTENANCE_KINDS
    ]
    return ScenarioSpec(
        name="multi-source-storm",
        description="many sources multicast through a maintenance timeout storm",
        topology=TopologyAxis(size=14, capacities=UniformCapacity(4, 10)),
        workload=WorkloadAxis(
            multicasts=5,
            propagation_window=8.0,
            static_sources=5,
        ),
        faults=FaultAxis(fault_window=15.0, events=tuple(events)),
    )


#: The library, in presentation order (builders run once at import).
LIBRARY: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        _flash_crowd(),
        _diurnal_churn(),
        _regional_partition(),
        _heavy_tail_capacities(),
        _multi_source_storm(),
    )
}


def scenario_names() -> tuple[str, ...]:
    """Library scenario names, in presentation order."""
    return tuple(LIBRARY)


def get_scenario(name: str) -> ScenarioSpec:
    """Look one library scenario up by name."""
    try:
        return LIBRARY[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(LIBRARY)}"
        ) from None
