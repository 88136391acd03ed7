"""Lower scenario specs into the fault-campaign machinery.

:func:`compile_cell` turns ``(spec, system, seed)`` into a
:class:`CompiledCell` — a frozen, JSON round-trippable bundle of the
things :func:`repro.faults.campaign.run_plan` executes:

* a :class:`~repro.systems.MemberSpec`, sampled from the topology axis
  (capacity law, bandwidths ``c * p``, identifiers either hash-uniform
  or Hilbert-placed from sampled coordinates);
* a :class:`~repro.faults.plan.FaultPlan`, merging the fault axis's
  schedule with the workload axis's churn trace *lowered to fault
  events* — a churn JOIN becomes a ``join`` event with a capacity
  drawn from the same law, LEAVE/CRASH become rank-addressed
  ``leave``/``crash`` events — so "join/leave during dissemination" is
  exactly the chaos the quiesce-then-check oracles already judge;
* a :class:`~repro.scenarios.spec.LatencySpec` the runner rebuilds
  into a live model, pinning Hilbert coordinates so geographic delay
  matches geographic identifier placement.

All randomness draws from named SHA-512 streams
(:func:`repro.experiments.common.point_rng`), membership streams keyed
*without* the system name — every system in a matrix row sees the
same members, churn and faults, so rows compare systems and nothing
else.  Compiling the same ``(spec, system, seed)`` twice is
byte-identical; that property is what lets ``--jobs N`` matrix runs
reproduce the serial run exactly and lets the ddmin shrinker replay
candidate cells without retry noise.

:func:`run_cell` executes a cell twice over: the live phase through
:func:`~repro.faults.campaign.run_plan` (inject, quiesce, repair,
multicast, judge every oracle), then a static phase over the same
membership — explicit trees from ``static_sources`` distinct sources,
measured with the Section 6.1 bottleneck-throughput model and the
Section 5.1 forwarding-load accounting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any

from repro.experiments.common import point_rng
from repro.faults.campaign import PlanOutcome, run_plan
from repro.faults.plan import FaultEvent, FaultPlan
from repro.metrics.load import flooding_load
from repro.metrics.throughput import sustainable_throughput
from repro.scenarios.spec import LatencySpec, ScenarioSpec, reject_unknown_keys
from repro.sim.latency import ConstantLatency, GeographicLatency, LatencyModel
from repro.systems import MemberSpec, get_system


def _scenario_rng(seed: int, name: str, *parts: object):
    """One named stream of a scenario's compilation."""
    return point_rng(seed, "scenario", name, *parts)


def _sample_members(
    spec: ScenarioSpec, seed: int
) -> tuple[MemberSpec, tuple[tuple[float, float], ...] | None]:
    """The row's shared membership (system-independent stream)."""
    from repro.idspace.geography import geographic_identifiers
    from repro.idspace.ring import IdentifierSpace
    from repro.overlay.base import sample_identifiers

    topology = spec.topology
    rng = _scenario_rng(seed, spec.name, "members")
    capacities = tuple(
        topology.capacities.sample(rng) for _ in range(topology.size)
    )
    bandwidths = tuple(
        capacity * topology.per_link_kbps for capacity in capacities
    )
    coordinates: tuple[tuple[float, float], ...] | None = None
    if topology.placement == "hilbert":
        coordinates = tuple(
            (rng.random(), rng.random()) for _ in range(topology.size)
        )
        identifiers = tuple(
            geographic_identifiers(
                list(coordinates), IdentifierSpace(topology.space_bits)
            )
        )
    else:
        identifiers = tuple(
            sample_identifiers(topology.size, 1 << topology.space_bits, rng)
        )
    members = MemberSpec(
        space_bits=topology.space_bits,
        identifiers=identifiers,
        capacities=capacities,
        bandwidths=bandwidths,
    )
    return members, coordinates


def _lower_churn(spec: ScenarioSpec, seed: int) -> list[FaultEvent]:
    """Churn trace -> rank-addressed fault events (system-independent)."""
    churn = spec.workload.churn
    if churn.kind == "none":
        return []
    from repro.churn.trace import ChurnKind

    trace = churn.trace(
        spec.faults.fault_window, rng=_scenario_rng(seed, spec.name, "churn")
    )
    lowering = _scenario_rng(seed, spec.name, "churn-lowering")
    events: list[FaultEvent] = []
    for event in trace:
        if event.kind is ChurnKind.JOIN:
            capacity = spec.topology.capacities.sample(lowering)
            events.append(
                FaultEvent(event.time, "join", capacity=max(1, capacity))
            )
        else:
            action = "crash" if event.kind is ChurnKind.CRASH else "leave"
            events.append(
                FaultEvent(event.time, action, a=lowering.randrange(1 << 16))
            )
    return events


def _fault_events(
    spec: ScenarioSpec, system: str, seed: int
) -> tuple[list[FaultEvent], float]:
    """The fault axis's schedule and window, embedded or generated."""
    faults = spec.faults
    if faults.generate_index is None:
        return list(faults.events), faults.fault_window
    from repro.faults.plan import generate_plan

    generated = generate_plan(system, faults.generate_index, campaign_seed=seed)
    return list(generated.events), max(faults.fault_window, generated.fault_window)


@dataclass(frozen=True)
class CompiledCell:
    """One (scenario, system) matrix cell, lowered and frozen.

    Everything :func:`run_cell` touches lives here as a value, so a
    cell pickles cleanly to pool workers, dumps to JSON for artifact
    replay, and re-runs byte-identically.
    """

    scenario: str
    system: str
    seed: int
    plan: FaultPlan
    members: MemberSpec
    latency: LatencySpec
    coordinates: tuple[tuple[float, float], ...] | None = None
    message_kbits: float = 1.0
    static_sources: int = 3

    def build_latency(self) -> LatencyModel:
        """The live latency model, coordinates pinned when geographic."""
        if self.latency.kind == "constant":
            return ConstantLatency(self.latency.seconds)
        model = GeographicLatency(
            base=self.latency.base,
            per_unit=self.latency.per_unit,
            jitter=self.latency.jitter,
            placement_seed=self.seed,
        )
        if self.coordinates is not None:
            for ident, (x, y) in zip(self.members.identifiers, self.coordinates):
                model.place(ident, x, y)
        return model

    def with_plan(self, plan: FaultPlan) -> "CompiledCell":
        """The same cell around a candidate plan (the shrinker's hook).

        The ddmin size pass shrinks ``plan.size``; the membership (and
        its pinned coordinates) truncates to the plan's first ``size``
        members so the cell stays self-consistent.
        """
        members = self.members
        coordinates = self.coordinates
        if plan.size < len(members):
            members = MemberSpec(
                space_bits=members.space_bits,
                identifiers=members.identifiers[: plan.size],
                capacities=members.capacities[: plan.size],
                bandwidths=members.bandwidths[: plan.size],
            )
            if coordinates is not None:
                coordinates = coordinates[: plan.size]
        return replace(self, plan=plan, members=members, coordinates=coordinates)

    # -- JSON ------------------------------------------------------------

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "scenario": self.scenario,
            "system": self.system,
            "seed": self.seed,
            "plan": self.plan.to_json_dict(),
            "members": {
                "space_bits": self.members.space_bits,
                "identifiers": list(self.members.identifiers),
                "capacities": list(self.members.capacities),
                "bandwidths": list(self.members.bandwidths),
            },
            "latency": self.latency.to_json_dict(),
            "message_kbits": self.message_kbits,
            "static_sources": self.static_sources,
        }
        if self.coordinates is not None:
            out["coordinates"] = [list(pair) for pair in self.coordinates]
        return out

    @classmethod
    def from_json_dict(cls, raw: dict[str, Any]) -> "CompiledCell":
        reject_unknown_keys(raw, cls)
        members = reject_unknown_keys(raw["members"], MemberSpec)
        return cls(
            scenario=str(raw["scenario"]),
            system=str(raw["system"]),
            seed=int(raw["seed"]),
            plan=FaultPlan.from_json_dict(raw["plan"]),
            members=MemberSpec(
                space_bits=int(members["space_bits"]),
                identifiers=tuple(int(i) for i in members["identifiers"]),
                capacities=tuple(int(c) for c in members["capacities"]),
                bandwidths=tuple(float(b) for b in members["bandwidths"]),
            ),
            latency=LatencySpec.from_json_dict(raw["latency"]),
            coordinates=(
                tuple((float(x), float(y)) for x, y in raw["coordinates"])
                if raw.get("coordinates") is not None
                else None
            ),
            message_kbits=float(raw.get("message_kbits", 1.0)),
            static_sources=int(raw.get("static_sources", 3)),
        )


def save_cell(cell: CompiledCell, path: str) -> None:
    """Write one compiled cell as JSON (the replayable artifact form)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(cell.to_json_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def compile_cell(spec: ScenarioSpec, system: str, seed: int = 0) -> CompiledCell:
    """Lower one scenario for one system, deterministically.

    Membership, churn and embedded faults draw from streams keyed
    without the system name (rows share them); only the plan seed and
    generated-fault family see the system.
    """
    get_system(system)  # fail fast on unknown names
    members, coordinates = _sample_members(spec, seed)
    events = _lower_churn(spec, seed)
    fault_events, fault_window = _fault_events(spec, system, seed)
    events.extend(fault_events)
    events.sort(key=lambda e: (e.time, e.action))
    plan = FaultPlan(
        system=system,
        size=spec.topology.size,
        seed=_scenario_rng(seed, spec.name, system, "plan-seed").randrange(1 << 31),
        events=tuple(events),
        space_bits=spec.topology.space_bits,
        uniform_fanout=spec.uniform_fanout,
        fault_window=fault_window,
        multicasts=spec.workload.multicasts,
        propagation_window=spec.workload.propagation_window,
        label=spec.name,
    )
    return CompiledCell(
        scenario=spec.name,
        system=system,
        seed=seed,
        plan=plan,
        members=members,
        latency=spec.topology.latency,
        coordinates=coordinates,
        message_kbits=spec.workload.message_kbits,
        static_sources=spec.workload.static_sources,
    )


@dataclass(frozen=True)
class CellOutcome:
    """Everything one cell execution produced, as plain data."""

    cell: CompiledCell
    outcome: PlanOutcome
    throughput_kbps: float | None = None
    load_max_over_mean: float = 0.0
    load_cv: float = 0.0
    load_idle_fraction: float = 0.0

    @property
    def passed(self) -> bool:
        return self.outcome.passed

    def mean_delivery(self) -> float | None:
        report = self.outcome.report()
        return report.mean_delivery_ratio if report.has_measurements else None

    def row(self) -> dict[str, Any]:
        """One result-table row as JSON-safe data."""
        delivery = self.mean_delivery()
        return {
            "scenario": self.cell.scenario,
            "system": self.cell.system,
            "passed": self.passed,
            "violations": [str(v) for v in self.outcome.violations],
            "mean_delivery": delivery,
            "duplicates": sum(self.outcome.duplicates_per_message),
            "final_membership": self.outcome.final_membership,
            "throughput_kbps": self.throughput_kbps,
            "load_max_over_mean": self.load_max_over_mean,
            "load_cv": self.load_cv,
            "load_idle_fraction": self.load_idle_fraction,
        }


def run_cell(cell: CompiledCell) -> CellOutcome:
    """Execute one cell: live fault phase, then static measurement."""
    from repro.multicast.session import MulticastGroup

    outcome = run_plan(
        cell.plan, member_spec=cell.members, latency=cell.build_latency()
    )

    descriptor = get_system(cell.system)
    snapshot = cell.members.snapshot(min_capacity=descriptor.min_capacity)
    group = MulticastGroup.from_snapshot(
        cell.system, snapshot, uniform_fanout=cell.plan.uniform_fanout
    )
    rng = _scenario_rng(cell.seed, cell.scenario, cell.system, "static-sources")
    count = min(cell.static_sources, len(cell.members))
    sources = rng.sample(cell.members.identifiers, count)
    results = [
        group.multicast_from(snapshot.node_at(ident)) for ident in sources
    ]
    try:
        throughput: float | None = min(
            sustainable_throughput(result, snapshot) for result in results
        )
    except ValueError:
        throughput = None  # membership carries no usable bandwidths
    load = flooding_load(results, message_kbits=cell.message_kbits)
    return CellOutcome(
        cell=cell,
        outcome=outcome,
        throughput_kbps=throughput,
        load_max_over_mean=load.max_over_mean,
        load_cv=load.coefficient_of_variation,
        load_idle_fraction=load.idle_fraction,
    )
