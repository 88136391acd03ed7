"""Declarative scenario specs: one frozen value, three axes.

A :class:`ScenarioSpec` composes everything one resilience experiment
varies, each axis an independent frozen value:

* :class:`TopologyAxis` — who the members are: group size, identifier
  space, the capacity law (uniform, fixed, heavy-tail Pareto), the
  per-link rate that derives bandwidths, and *where* members sit —
  hash-uniform identifiers or the Section 5.2 Geographic Layout
  (Hilbert-curve placement) with a matching distance-proportional
  latency model.
* :class:`WorkloadAxis` — what the group does: how many multicasts,
  how long each propagates, and a :class:`ChurnModel` describing
  join/leave/crash dynamics *during* dissemination (none, Poisson,
  FastTrack sessions, or sinusoidal diurnal swing).
* :class:`FaultAxis` — what goes wrong: an embedded schedule of
  :class:`~repro.faults.plan.FaultEvent` primitives, or a reference to
  the generated-plan family (``generate_index``) of
  :func:`repro.faults.plan.generate_plan`.

Like :class:`~repro.faults.plan.FaultPlan`, a spec is a *value*:
frozen, JSON round-trippable (:meth:`ScenarioSpec.to_json_dict` /
:meth:`ScenarioSpec.from_json_dict`, which rejects a key no field
reads), and every byte of its compiled form derives
from ``(spec, system, seed)`` — the compiler (:mod:`.compile`) draws
all randomness from named SHA-512 streams, so compiling twice yields
byte-identical cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Any

from repro.capacity.distributions import (
    CapacityDistribution,
    UniformCapacity,
    capacity_distribution_from_json,
    distribution_to_json,
)
from repro.churn.trace import ChurnTrace, diurnal_trace, poisson_trace, session_trace
from repro.faults.plan import FaultEvent

#: Churn models a workload axis may name.
CHURN_KINDS = ("none", "poisson", "session", "diurnal")

#: Identifier placement policies a topology axis may name.
PLACEMENTS = ("uniform", "hilbert")

#: Latency models a topology axis may name.
LATENCY_KINDS = ("constant", "geographic")


def reject_unknown_keys(raw: dict[str, Any], cls: type) -> dict[str, Any]:
    """``raw`` itself, or a ``ValueError`` naming each key ``cls`` lacks.

    A misspelt key would otherwise run the field's default unnoticed.
    """
    unknown = sorted(set(raw) - set(cls.__dataclass_fields__))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): {', '.join(unknown)}")
    return raw


@dataclass(frozen=True)
class ChurnModel:
    """Membership dynamics during the fault window, as data.

    ``kind`` selects the generator from :mod:`repro.churn.trace`;
    only the fields that generator reads matter (the rest keep their
    defaults so JSON stays terse).  ``kind="none"`` yields an empty
    trace.
    """

    kind: str = "none"
    join_rate: float = 0.0  # poisson: joins per simulated second
    depart_rate: float = 0.0  # poisson: departures per simulated second
    arrival_rate: float = 0.0  # session: arrivals per simulated second
    mean_lifetime: float = 0.0  # session: expected stay, seconds
    trough_rate: float = 0.0  # diurnal: rate floor
    peak_rate: float = 0.0  # diurnal: rate ceiling
    period: float = 60.0  # diurnal: full day/night cycle, seconds
    crash_fraction: float = 1.0  # share of departures that are abrupt

    def __post_init__(self) -> None:
        if self.kind not in CHURN_KINDS:
            raise ValueError(
                f"unknown churn kind {self.kind!r}; choose from {CHURN_KINDS}"
            )

    def trace(self, duration: float, rng: Random) -> ChurnTrace:
        """Materialize the churn trace over ``[0, duration)``."""
        if self.kind == "none":
            return ChurnTrace((), duration)
        if self.kind == "poisson":
            return poisson_trace(
                duration,
                join_rate=self.join_rate,
                depart_rate=self.depart_rate,
                crash_fraction=self.crash_fraction,
                rng=rng,
            )
        if self.kind == "session":
            return session_trace(
                duration,
                arrival_rate=self.arrival_rate,
                mean_lifetime=self.mean_lifetime,
                crash_fraction=self.crash_fraction,
                rng=rng,
            )
        return diurnal_trace(
            duration,
            trough_rate=self.trough_rate,
            peak_rate=self.peak_rate,
            period=self.period,
            crash_fraction=self.crash_fraction,
            rng=rng,
        )

    def to_json_dict(self) -> dict[str, Any]:
        defaults = ChurnModel()
        out: dict[str, Any] = {"kind": self.kind}
        for name in (
            "join_rate",
            "depart_rate",
            "arrival_rate",
            "mean_lifetime",
            "trough_rate",
            "peak_rate",
            "period",
            "crash_fraction",
        ):
            value = getattr(self, name)
            if value != getattr(defaults, name):
                out[name] = value
        return out

    @classmethod
    def from_json_dict(cls, raw: dict[str, Any]) -> "ChurnModel":
        return cls(**reject_unknown_keys(raw, cls))


@dataclass(frozen=True)
class LatencySpec:
    """A latency model as data (the live model object is not a value)."""

    kind: str = "constant"
    seconds: float = 0.05  # constant: one-way delay
    base: float = 0.01  # geographic: floor delay
    per_unit: float = 0.2  # geographic: delay per unit torus distance
    jitter: float = 0.0  # geographic: multiplicative noise amplitude

    def __post_init__(self) -> None:
        if self.kind not in LATENCY_KINDS:
            raise ValueError(
                f"unknown latency kind {self.kind!r}; choose from {LATENCY_KINDS}"
            )

    def to_json_dict(self) -> dict[str, Any]:
        defaults = LatencySpec()
        out: dict[str, Any] = {"kind": self.kind}
        for name in ("seconds", "base", "per_unit", "jitter"):
            value = getattr(self, name)
            if value != getattr(defaults, name):
                out[name] = value
        return out

    @classmethod
    def from_json_dict(cls, raw: dict[str, Any]) -> "LatencySpec":
        return cls(**reject_unknown_keys(raw, cls))


@dataclass(frozen=True)
class TopologyAxis:
    """Who the members are and where they sit."""

    size: int = 16
    space_bits: int = 12
    capacities: CapacityDistribution = field(default_factory=lambda: UniformCapacity(4, 8))
    per_link_kbps: float = 100.0
    placement: str = "uniform"
    latency: LatencySpec = field(default_factory=LatencySpec)

    def __post_init__(self) -> None:
        if self.size < 4:
            raise ValueError(f"scenario groups need >= 4 members, got {self.size}")
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {self.placement!r}; choose from {PLACEMENTS}"
            )
        if self.per_link_kbps <= 0:
            raise ValueError(f"per_link_kbps must be positive, got {self.per_link_kbps}")

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "size": self.size,
            "space_bits": self.space_bits,
            "capacities": distribution_to_json(self.capacities),
            "per_link_kbps": self.per_link_kbps,
            "placement": self.placement,
            "latency": self.latency.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, raw: dict[str, Any]) -> "TopologyAxis":
        reject_unknown_keys(raw, cls)
        return cls(
            size=int(raw.get("size", 16)),
            space_bits=int(raw.get("space_bits", 12)),
            capacities=capacity_distribution_from_json(raw["capacities"]),
            per_link_kbps=float(raw.get("per_link_kbps", 100.0)),
            placement=str(raw.get("placement", "uniform")),
            latency=LatencySpec.from_json_dict(raw.get("latency", {"kind": "constant"})),
        )


@dataclass(frozen=True)
class WorkloadAxis:
    """What the group does while the faults play out."""

    multicasts: int = 2
    propagation_window: float = 10.0
    churn: ChurnModel = field(default_factory=ChurnModel)
    message_kbits: float = 1.0
    static_sources: int = 3  # distinct sources probed in the static phase

    def __post_init__(self) -> None:
        if self.multicasts < 0:
            raise ValueError(f"multicasts must be >= 0, got {self.multicasts}")
        if self.static_sources < 1:
            raise ValueError(
                f"static_sources must be >= 1, got {self.static_sources}"
            )

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "multicasts": self.multicasts,
            "propagation_window": self.propagation_window,
            "churn": self.churn.to_json_dict(),
            "message_kbits": self.message_kbits,
            "static_sources": self.static_sources,
        }

    @classmethod
    def from_json_dict(cls, raw: dict[str, Any]) -> "WorkloadAxis":
        reject_unknown_keys(raw, cls)
        return cls(
            multicasts=int(raw.get("multicasts", 2)),
            propagation_window=float(raw.get("propagation_window", 10.0)),
            churn=ChurnModel.from_json_dict(raw.get("churn", {"kind": "none"})),
            message_kbits=float(raw.get("message_kbits", 1.0)),
            static_sources=int(raw.get("static_sources", 3)),
        )


@dataclass(frozen=True)
class FaultAxis:
    """What goes wrong, and over how long a window.

    ``events`` embeds an explicit schedule (the library scenarios do
    this — a spec file then fully describes its faults).  Setting
    ``generate_index`` instead references the seed-deterministic plan
    family of :func:`repro.faults.plan.generate_plan`: the compiler
    takes that plan's events and window, so a scenario can ride the
    same generated chaos the extK campaign sweeps.
    """

    fault_window: float = 20.0
    events: tuple[FaultEvent, ...] = ()
    generate_index: int | None = None

    def __post_init__(self) -> None:
        if self.fault_window < 0:
            raise ValueError(f"fault_window must be >= 0, got {self.fault_window}")
        if self.generate_index is not None and self.events:
            raise ValueError("provide events or generate_index, not both")
        for event in self.events:
            if event.time > self.fault_window:
                raise ValueError(
                    f"event at t={event.time} outside fault window "
                    f"{self.fault_window}"
                )

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"fault_window": self.fault_window}
        if self.generate_index is not None:
            out["generate_index"] = self.generate_index
        else:
            out["events"] = [event.to_json_dict() for event in self.events]
        return out

    @classmethod
    def from_json_dict(cls, raw: dict[str, Any]) -> "FaultAxis":
        reject_unknown_keys(raw, cls)
        return cls(
            fault_window=float(raw.get("fault_window", 20.0)),
            events=tuple(
                FaultEvent.from_json_dict(event) for event in raw.get("events", [])
            ),
            generate_index=(
                int(raw["generate_index"])
                if raw.get("generate_index") is not None
                else None
            ),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete scenario: name, three axes, a fanout for baselines."""

    name: str
    topology: TopologyAxis = field(default_factory=TopologyAxis)
    workload: WorkloadAxis = field(default_factory=WorkloadAxis)
    faults: FaultAxis = field(default_factory=FaultAxis)
    uniform_fanout: int = 4
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a name")

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "topology": self.topology.to_json_dict(),
            "workload": self.workload.to_json_dict(),
            "faults": self.faults.to_json_dict(),
            "uniform_fanout": self.uniform_fanout,
        }

    @classmethod
    def from_json_dict(cls, raw: dict[str, Any]) -> "ScenarioSpec":
        reject_unknown_keys(raw, cls)
        return cls(
            name=str(raw["name"]),
            description=str(raw.get("description", "")),
            topology=TopologyAxis.from_json_dict(raw["topology"]),
            workload=WorkloadAxis.from_json_dict(raw["workload"]),
            faults=FaultAxis.from_json_dict(raw["faults"]),
            uniform_fanout=int(raw.get("uniform_fanout", 4)),
        )
