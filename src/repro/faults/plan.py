"""Declarative, seed-deterministic fault plans.

A :class:`FaultPlan` freezes one complete chaos scenario: which system
runs, how many members it starts with (drawn from the plan's seed as a
:class:`~repro.systems.MemberSpec`), and a time-ordered schedule of
:class:`FaultEvent` primitives applied to the live cluster — crashes,
graceful leaves, joins, pairwise ring partitions and heals, global and
per-message-kind loss bursts (the latter doubling as timeout storms
when aimed at the maintenance RPC kinds), and flash churn bursts.

Plans are *values*: frozen, hashable, JSON round-trippable, and every
byte of their execution derives from their fields — the same plan run
twice produces the same violation set (``tests`` assert exactly this).
That is what makes the shrinker possible: a candidate plan either
still fails or it does not, with no retry noise.

Victims are addressed by *rank*, not identifier: a crash event's ``a``
selects the ``a mod len(live)``-th live member at apply time.  Ranks
survive shrinking (dropping an earlier event changes who is alive, but
the plan still replays deterministically), whereas raw identifiers
would dangle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from random import Random
from typing import Any, Iterable, Sequence

#: Fault actions a plan may schedule.  ``heal`` heals *all* active
#: partitions (pairwise bookkeeping does not survive shrinking);
#: ``loss`` sets the global rate; ``kind_loss`` the per-kind rate.
ACTIONS = ("crash", "leave", "join", "partition", "heal", "loss", "kind_loss")

#: Maintenance RPC kinds a timeout storm starves.
MAINTENANCE_KINDS = ("get_info", "next_hop", "ping")

#: Never crash or leave below this many live members — a plan that
#: kills the whole ring proves nothing about multicast resilience.
MIN_LIVE_MEMBERS = 4


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault primitive.

    ``time`` is seconds after the post-bootstrap clock origin.  ``a``
    and ``b`` are live-member ranks (resolved at apply time, modulo the
    live count); ``rate``/``kind`` parameterize the loss actions;
    ``capacity`` the join action.
    """

    time: float
    action: str
    a: int = 0
    b: int = 0
    rate: float = 0.0
    kind: str = ""
    capacity: int = 0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; choose from {ACTIONS}"
            )
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"t": self.time, "action": self.action}
        if self.a:
            out["a"] = self.a
        if self.b:
            out["b"] = self.b
        if self.rate:
            out["rate"] = self.rate
        if self.kind:
            out["kind"] = self.kind
        if self.capacity:
            out["capacity"] = self.capacity
        return out

    @classmethod
    def from_json_dict(cls, raw: dict[str, Any]) -> "FaultEvent":
        return cls(
            time=float(raw["t"]),
            action=str(raw["action"]),
            a=int(raw.get("a", 0)),
            b=int(raw.get("b", 0)),
            rate=float(raw.get("rate", 0.0)),
            kind=str(raw.get("kind", "")),
            capacity=int(raw.get("capacity", 0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """One frozen chaos scenario for one system."""

    system: str
    size: int
    seed: int
    events: tuple[FaultEvent, ...] = ()
    space_bits: int = 12
    capacity_range: tuple[int, int] = (4, 8)
    uniform_fanout: int = 4
    fault_window: float = 30.0
    multicasts: int = 2
    propagation_window: float = 15.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.size < MIN_LIVE_MEMBERS:
            raise ValueError(
                f"plan needs >= {MIN_LIVE_MEMBERS} members, got {self.size}"
            )
        if self.multicasts < 0:
            raise ValueError(f"multicasts must be >= 0, got {self.multicasts}")
        for event in self.events:
            if event.time > self.fault_window:
                raise ValueError(
                    f"event at t={event.time} outside fault window "
                    f"{self.fault_window}"
                )

    def with_events(self, events: Iterable[FaultEvent]) -> "FaultPlan":
        """The same plan with a different event schedule."""
        return replace(self, events=tuple(events))

    def describe(self) -> str:
        """One summary line: system, size, schedule shape.

        The schedule is rendered through :func:`summarize_events`, so
        composite primitives read as what they are (``partition_window``,
        ``flash_churn[5]``, ``timeout_storm``) instead of their raw
        event expansion — scenario-cell failure reports quote this line.
        """
        kinds = ",".join(summarize_events(self.events)) or "none"
        return (
            f"{self.system} n={self.size} seed={self.seed} "
            f"events[{len(self.events)}]={kinds} multicasts={self.multicasts}"
        )

    # -- JSON ------------------------------------------------------------

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "system": self.system,
            "size": self.size,
            "seed": self.seed,
            "space_bits": self.space_bits,
            "capacity_range": list(self.capacity_range),
            "uniform_fanout": self.uniform_fanout,
            "fault_window": self.fault_window,
            "multicasts": self.multicasts,
            "propagation_window": self.propagation_window,
            "label": self.label,
            "events": [event.to_json_dict() for event in self.events],
        }

    @classmethod
    def from_json_dict(cls, raw: dict[str, Any]) -> "FaultPlan":
        return cls(
            system=str(raw["system"]),
            size=int(raw["size"]),
            seed=int(raw["seed"]),
            events=tuple(
                FaultEvent.from_json_dict(event) for event in raw.get("events", [])
            ),
            space_bits=int(raw.get("space_bits", 12)),
            capacity_range=tuple(raw.get("capacity_range", (4, 8))),
            uniform_fanout=int(raw.get("uniform_fanout", 4)),
            fault_window=float(raw.get("fault_window", 30.0)),
            multicasts=int(raw.get("multicasts", 2)),
            propagation_window=float(raw.get("propagation_window", 15.0)),
            label=str(raw.get("label", "")),
        )


def save_plan(plan: FaultPlan, path: str, extra: dict[str, Any] | None = None) -> None:
    """Write a plan (plus optional metadata) as JSON."""
    payload = plan.to_json_dict()
    if extra:
        payload["meta"] = extra
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_plan(path: str) -> FaultPlan:
    """Read a plan written by :func:`save_plan`."""
    with open(path, "r", encoding="utf-8") as handle:
        return FaultPlan.from_json_dict(json.load(handle))


# -- schedule summarization ---------------------------------------------------


def summarize_events(events: Sequence[FaultEvent]) -> list[str]:
    """Name the primitives a flat event schedule expands from.

    The composable helpers below lower to raw events (a partition
    window is a ``partition`` plus a later ``heal``; a timeout storm is
    six ``kind_loss`` edges; flash churn alternates crashes and joins),
    and failure reports that print raw actions are unreadable.  This
    re-coalesces the recognizable shapes — ``partition_window``,
    ``loss_burst``, ``timeout_storm``, ``kind_loss(<kind>)``,
    ``flash_churn[<n>]`` — and leaves anything unmatched (including the
    dangling halves a shrunk plan keeps) as its raw action name.
    """
    ordered = sorted(events, key=lambda e: (e.time, e.action))
    consumed = [False] * len(ordered)

    def claim_later(predicate) -> bool:
        """Consume the first later unconsumed event matching ``predicate``."""
        for j in range(len(ordered)):
            if not consumed[j] and predicate(ordered[j]):
                consumed[j] = True
                return True
        return False

    names: list[str] = []
    for i, event in enumerate(ordered):
        if consumed[i]:
            continue
        consumed[i] = True
        if event.action in ("crash", "join"):
            # flash churn: an unbroken alternating crash/join run of >= 3
            run = 1
            expect = "join" if event.action == "crash" else "crash"
            j = i + 1
            while j < len(ordered) and not consumed[j] and ordered[j].action == expect:
                run += 1
                expect = "join" if expect == "crash" else "crash"
                j += 1
            if run >= 3:
                for k in range(i + 1, j):
                    consumed[k] = True
                names.append(f"flash_churn[{run}]")
            else:
                names.append(event.action)
        elif event.action == "partition":
            matched = claim_later(
                lambda e, t=event.time: e.action == "heal" and e.time >= t
            )
            names.append("partition_window" if matched else "partition")
        elif event.action == "loss" and event.rate > 0:
            matched = claim_later(
                lambda e, t=event.time: e.action == "loss"
                and e.rate == 0
                and e.time >= t
            )
            names.append("loss_burst" if matched else "loss")
        elif event.action == "kind_loss" and event.rate > 0:
            # timeout storm: same-instant onsets covering every
            # maintenance RPC kind, each with a later zero-rate edge
            onsets = [i]
            for j in range(i + 1, len(ordered)):
                if (
                    not consumed[j]
                    and ordered[j].action == "kind_loss"
                    and ordered[j].rate > 0
                    and ordered[j].time == event.time
                ):
                    onsets.append(j)
            kinds = {ordered[j].kind for j in onsets}
            if set(MAINTENANCE_KINDS) <= kinds:
                for j in onsets:
                    consumed[j] = True
                for kind in MAINTENANCE_KINDS:
                    claim_later(
                        lambda e, k=kind, t=event.time: e.action == "kind_loss"
                        and e.kind == k
                        and e.rate == 0
                        and e.time >= t
                    )
                names.append("timeout_storm")
            else:
                claim_later(
                    lambda e, k=event.kind, t=event.time: e.action == "kind_loss"
                    and e.kind == k
                    and e.rate == 0
                    and e.time >= t
                )
                names.append(f"kind_loss({event.kind})")
        else:
            names.append(event.action)
    return names


# -- composable primitives ----------------------------------------------------
#
# Each helper returns the event list one higher-level fault shape
# expands to; the generator composes them, but tests and hand-written
# scenarios use them directly.


def crash_at(time: float, rank: int) -> list[FaultEvent]:
    """Abruptly fail one live member."""
    return [FaultEvent(time, "crash", a=rank)]


def leave_at(time: float, rank: int) -> list[FaultEvent]:
    """Gracefully depart one live member."""
    return [FaultEvent(time, "leave", a=rank)]


def join_at(time: float, capacity: int) -> list[FaultEvent]:
    """Join a brand-new member of ``capacity``."""
    return [FaultEvent(time, "join", capacity=capacity)]


def partition_window(
    time: float, duration: float, rank_a: int, rank_b: int, limit: float
) -> list[FaultEvent]:
    """Sever one live pair, then heal everything ``duration`` later."""
    heal_time = min(time + duration, limit)
    return [
        FaultEvent(time, "partition", a=rank_a, b=rank_b),
        FaultEvent(heal_time, "heal"),
    ]


def loss_burst(time: float, duration: float, rate: float, limit: float) -> list[FaultEvent]:
    """Global iid loss at ``rate`` for ``duration`` seconds."""
    return [
        FaultEvent(time, "loss", rate=rate),
        FaultEvent(min(time + duration, limit), "loss", rate=0.0),
    ]


def timeout_storm(
    time: float, duration: float, rate: float, limit: float
) -> list[FaultEvent]:
    """Starve the maintenance RPCs so requests expire in droves."""
    end = min(time + duration, limit)
    events = [
        FaultEvent(time, "kind_loss", kind=kind, rate=rate)
        for kind in MAINTENANCE_KINDS
    ]
    events.extend(
        FaultEvent(end, "kind_loss", kind=kind, rate=0.0)
        for kind in MAINTENANCE_KINDS
    )
    return events


def message_loss_burst(
    time: float, duration: float, kind: str, rate: float, limit: float
) -> list[FaultEvent]:
    """Per-message-kind loss (e.g. eat ``mc_region`` handoffs only)."""
    return [
        FaultEvent(time, "kind_loss", kind=kind, rate=rate),
        FaultEvent(min(time + duration, limit), "kind_loss", kind=kind, rate=0.0),
    ]


def flash_churn(
    time: float, count: int, spacing: float, capacity: int, limit: float
) -> list[FaultEvent]:
    """A burst of alternating crashes and joins ``spacing`` apart."""
    events: list[FaultEvent] = []
    for index in range(count):
        when = min(time + index * spacing, limit)
        if index % 2 == 0:
            events.append(FaultEvent(when, "crash", a=index * 7 + 1))
        else:
            events.append(FaultEvent(when, "join", capacity=capacity))
    return events


# -- seed-deterministic generation -------------------------------------------


def generate_plan(system: str, index: int, campaign_seed: int = 0) -> FaultPlan:
    """The ``index``-th random plan of one system's campaign.

    Seeding routes through a string (like
    :func:`repro.experiments.common.point_rng`), so the stream is
    stable across processes and platforms: plan ``(system, index,
    seed)`` is the same everywhere, which is what lets the campaign fan
    plans over worker processes and still aggregate deterministic
    results.
    """
    rng = Random(f"faultplan:{campaign_seed}:{system}:{index}")
    size = rng.randint(8, 20)
    window = 30.0
    events: list[FaultEvent] = []
    for _ in range(rng.randint(1, 4)):  # one to four fault primitives
        events.extend(_random_primitive(rng, window))
    events.sort(key=lambda event: (event.time, event.action))
    return FaultPlan(
        system=system,
        size=size,
        seed=rng.randrange(1 << 31),
        events=tuple(events),
        fault_window=window,
        label=f"gen:{campaign_seed}:{system}:{index}",
    )


def _random_primitive(rng: Random, window: float) -> Sequence[FaultEvent]:
    """Draw one fault shape within ``[0, window]``."""
    time = rng.uniform(0.0, window * 0.8)
    shape = rng.choice(
        (
            "crash", "crash",  # plain failures dominate real churn
            "leave",
            "join",
            "partition",
            "loss",
            "timeout_storm",
            "message_loss",
            "flash_churn",
        )
    )
    if shape == "crash":
        return crash_at(time, rng.randrange(64))
    if shape == "leave":
        return leave_at(time, rng.randrange(64))
    if shape == "join":
        return join_at(time, rng.randint(4, 8))
    if shape == "partition":
        return partition_window(
            time, rng.uniform(2.0, 10.0), rng.randrange(64), rng.randrange(64), window
        )
    if shape == "loss":
        return loss_burst(time, rng.uniform(2.0, 8.0), rng.uniform(0.05, 0.3), window)
    if shape == "timeout_storm":
        return timeout_storm(
            time, rng.uniform(2.0, 6.0), rng.uniform(0.5, 0.9), window
        )
    if shape == "message_loss":
        kind = rng.choice(("mc_region", "mc_flood", "notify"))
        return message_loss_burst(
            time, rng.uniform(2.0, 8.0), kind, rng.uniform(0.2, 0.6), window
        )
    return flash_churn(time, rng.randint(3, 6), 0.5, rng.randint(4, 8), window)
