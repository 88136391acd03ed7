"""Reproducible generation of multicast groups and service workloads.

A :class:`GroupSpec` captures everything the paper's Section 6 setup
varies: group size, identifier-space width, and either a capacity
distribution (Figures 9-11 sweep capacity ranges directly) or a
bandwidth distribution plus per-link rate ``p`` (Figures 6-8 derive
capacities as ``floor(B_x / p)``).

A :class:`ServiceWorkloadSpec` describes the *service-plane* regime on
top of that: many groups arriving over time with exponential holding
times, per-group send cadences, and poisson member join/leave churn
firing **mid-dissemination**.  :func:`generate_service_workload`
compiles it to a concrete, time-ordered :class:`ServiceEvent` sequence
— the generator tracks each group's membership as it walks forward, so
every event is valid by construction (joins pick non-members, leaves
keep at least two members, sends originate at members) and the same
``(spec, seed)`` pair always yields the identical sequence.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from random import Random

from repro.capacity.distributions import BandwidthDistribution, CapacityDistribution
from repro.capacity.model import CapacityModel
from repro.idspace.ring import IdentifierSpace
from repro.overlay.base import RingSnapshot, build_snapshot


@dataclass(frozen=True)
class GroupSpec:
    """Parameters of one generated group.

    Exactly one of ``capacities`` / (``bandwidths`` + ``per_link_kbps``)
    must be provided.  ``min_capacity`` is the overlay-specific floor
    applied after sampling (CAM-Chord: 2, CAM-Koorde: 4).
    """

    size: int
    space_bits: int = 19
    capacities: CapacityDistribution | None = None
    bandwidths: BandwidthDistribution | None = None
    per_link_kbps: float | None = None
    min_capacity: int = 1

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"group size must be >= 1, got {self.size}")
        capacity_mode = self.capacities is not None
        bandwidth_mode = self.bandwidths is not None
        if capacity_mode == bandwidth_mode:
            raise ValueError(
                "provide exactly one of capacities / bandwidths(+per_link_kbps)"
            )
        if bandwidth_mode and self.per_link_kbps is None:
            raise ValueError("bandwidth mode requires per_link_kbps (the paper's p)")


@dataclass(frozen=True, slots=True)
class ServiceEvent:
    """One concrete service-plane action, ready to replay.

    ``hosts`` holds the full member list for ``create``, the single
    affected host for ``join`` / ``leave``, the source host for
    ``send``, and is empty for ``drop``.
    """

    time: float
    action: str  # "create" | "drop" | "join" | "leave" | "send"
    group: str
    hosts: tuple[str, ...] = ()
    kind: str = "cam-chord"
    per_link_kbps: float = 100.0
    message_kbits: float = 1.0


@dataclass(frozen=True)
class ServiceWorkload:
    """A compiled service workload: the host population to register
    (name → upload kbps, in registration order) and the time-ordered
    event sequence to replay."""

    hosts: tuple[tuple[str, float], ...]
    events: tuple[ServiceEvent, ...]

    def counts(self) -> dict[str, int]:
        """Events per action — the workload's shape at a glance."""
        out: dict[str, int] = {}
        for event in self.events:
            out[event.action] = out.get(event.action, 0) + 1
        return out


@dataclass(frozen=True)
class ServiceWorkloadSpec:
    """Parameters of a multi-group service-plane workload.

    ``groups`` arrive uniformly over the first ``arrival_window``
    fraction of the horizon and live for an exponential holding time
    (mean ``mean_hold_s``; a group whose holding time crosses the
    horizon simply stays open — no drop event).  While alive, a group
    originates sends every ~``send_interval_s`` (exponential) from a
    random current member, and suffers member churn — join or leave,
    equal odds — at ``churn_rate`` events per group-second.  Churn
    fires between sends, i.e. mid-dissemination once replayed onto the
    event-driven plane.
    """

    groups: int
    hosts: int
    group_size: int
    horizon_s: float
    send_interval_s: float = 5.0
    churn_rate: float = 0.0  # member join/leave events per group-second
    mean_hold_s: float | None = None  # None: groups never drop
    arrival_window: float = 0.25  # fraction of the horizon for arrivals
    message_kbits: float = 8.0
    kind: str = "cam-chord"
    per_link_kbps: float = 100.0
    bandwidths: BandwidthDistribution | None = None  # None: uniform 500 kbps
    min_group_size: int = 2

    def __post_init__(self) -> None:
        if self.groups < 1:
            raise ValueError(f"need at least one group, got {self.groups}")
        if self.group_size < self.min_group_size:
            raise ValueError(
                f"group_size {self.group_size} below minimum "
                f"{self.min_group_size}"
            )
        if self.hosts < self.group_size:
            raise ValueError(
                f"population of {self.hosts} cannot seat a group of "
                f"{self.group_size}"
            )
        if self.horizon_s <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon_s}")
        if self.send_interval_s <= 0:
            raise ValueError(
                f"send interval must be positive, got {self.send_interval_s}"
            )
        if self.churn_rate < 0:
            raise ValueError(f"churn rate must be >= 0, got {self.churn_rate}")
        if not 0.0 < self.arrival_window <= 1.0:
            raise ValueError(
                f"arrival window must be in (0, 1], got {self.arrival_window}"
            )


def generate_service_workload(
    spec: ServiceWorkloadSpec, seed: int = 0
) -> ServiceWorkload:
    """Compile a spec into hosts plus a valid, time-ordered event list.

    Determinism: one seeded generator drives everything, groups are
    generated in index order, and the final merge sorts by
    ``(time, generation index)`` — so the same ``(spec, seed)`` always
    compiles to the byte-identical workload, and replay order on the
    event-driven plane is the generation order for simultaneous events.
    """
    rng = Random(seed)
    host_names = [f"host{i:05d}" for i in range(spec.hosts)]
    # a group's membership is a sorted list of ranks into this column
    ranked = sorted(host_names)
    rank_of = {name: rank for rank, name in enumerate(ranked)}
    if spec.bandwidths is not None:
        rates = spec.bandwidths.sample_many(spec.hosts, rng)
    else:
        rates = [500.0] * spec.hosts
    hosts = tuple(zip(host_names, (float(rate) for rate in rates)))

    indexed: list[tuple[float, int, ServiceEvent]] = []
    counter = 0

    def push(event: ServiceEvent) -> None:
        nonlocal counter
        indexed.append((event.time, counter, event))
        counter += 1

    for index in range(spec.groups):
        group = f"group{index:04d}"
        born = rng.uniform(0.0, spec.horizon_s * spec.arrival_window)
        if spec.mean_hold_s is not None:
            dies: float | None = born + rng.expovariate(1.0 / spec.mean_hold_s)
            if dies >= spec.horizon_s:
                dies = None
        else:
            dies = None
        end = dies if dies is not None else spec.horizon_s
        members = rng.sample(host_names, spec.group_size)
        push(
            ServiceEvent(
                time=born,
                action="create",
                group=group,
                hosts=tuple(members),
                kind=spec.kind,
                per_link_kbps=spec.per_link_kbps,
                message_kbits=spec.message_kbits,
            )
        )
        current = sorted(rank_of[name] for name in members)

        # walk the group's life: merged poisson streams of sends and
        # churn, advancing membership as we go so every event is valid
        next_send = born + rng.expovariate(1.0 / spec.send_interval_s)
        next_churn = (
            born + rng.expovariate(spec.churn_rate)
            if spec.churn_rate > 0
            else float("inf")
        )
        while min(next_send, next_churn) < end:
            if next_send <= next_churn:
                source = ranked[rng.choice(current)]
                push(
                    ServiceEvent(
                        time=next_send,
                        action="send",
                        group=group,
                        hosts=(source,),
                        message_kbits=spec.message_kbits,
                    )
                )
                next_send += rng.expovariate(1.0 / spec.send_interval_s)
            else:
                free = spec.hosts - len(current)
                joinable = free > 0
                # equal odds join/leave, degraded to whichever is legal
                wants_join = rng.random() < 0.5
                if (wants_join and joinable) or (
                    len(current) <= spec.min_group_size and joinable
                ):
                    # the k-th host in name order that is not a member
                    rank = rng.randrange(free)
                    for taken in current:
                        if taken > rank:
                            break
                        rank += 1
                    insort(current, rank)
                    host = ranked[rank]
                    push(
                        ServiceEvent(
                            time=next_churn,
                            action="join",
                            group=group,
                            hosts=(host,),
                        )
                    )
                elif len(current) > spec.min_group_size:
                    rank = rng.choice(current)
                    current.remove(rank)
                    host = ranked[rank]
                    push(
                        ServiceEvent(
                            time=next_churn,
                            action="leave",
                            group=group,
                            hosts=(host,),
                        )
                    )
                next_churn += rng.expovariate(spec.churn_rate)
        if dies is not None:
            push(ServiceEvent(time=dies, action="drop", group=group))

    indexed.sort(key=lambda item: (item[0], item[1]))
    return ServiceWorkload(
        hosts=hosts, events=tuple(event for _, _, event in indexed)
    )


def generate_group(spec: GroupSpec, seed: int = 0) -> RingSnapshot:
    """Materialize a membership snapshot from a spec, deterministically.

    The same ``(spec, seed)`` pair always produces the identical
    snapshot: identifier placement, bandwidths and capacities all draw
    from one seeded generator.
    """
    rng = Random(seed)
    space = IdentifierSpace(spec.space_bits)
    if spec.capacities is not None:
        capacities = [
            max(spec.min_capacity, spec.capacities.sample(rng))
            for _ in range(spec.size)
        ]
        bandwidths = None
    else:
        assert spec.bandwidths is not None and spec.per_link_kbps is not None
        model = CapacityModel(spec.per_link_kbps, minimum=spec.min_capacity)
        bandwidths = spec.bandwidths.sample_many(spec.size, rng)
        capacities = model.capacities(bandwidths)
    return build_snapshot(space, capacities, bandwidths=bandwidths, rng=rng)
