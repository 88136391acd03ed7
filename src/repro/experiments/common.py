"""Shared experiment plumbing: scales, results, group builders, caches.

The group builders memoize their outputs in keyed caches: sweep points
that share ``(n, space_bits, seed, distribution)`` reuse the ring and
the bandwidth/capacity draws instead of regenerating them.  Groups are
deterministic values of their key, so cache reuse never changes a
result — it only skips identical work (Figure 11 re-sweeps the exact
capacity ranges of Figures 9/10, every Figure 7 sweep point shares
one bandwidth draw per upper bound, and the Figure 6 memberships, which
differ only in their capacities, share one ring per draw: the
identifiers, bandwidths, names and ring index of the draw's first
snapshot, each membership with a capacity column of its own).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable, Sequence

from repro import perf
from repro.capacity.distributions import (
    BandwidthDistribution,
    CapacityDistribution,
    UniformBandwidth,
)
from repro.capacity.model import CapacityModel
from repro.idspace.ring import IdentifierSpace
from repro.multicast.kernel import FlatTree
from repro.multicast.session import MulticastGroup, SystemKind
from repro.overlay.base import RingSnapshot, sample_identifiers
from repro.systems import DEFAULT_UNIFORM_FANOUT, SystemDescriptor, resolve
from repro.workloads.groups import GroupSpec, generate_group


@dataclass(frozen=True)
class ExperimentScale:
    """Sizing of one harness run.

    ``group_size`` is the paper's n (default 100,000); ``sources`` is
    how many random roots each measurement averages over;
    ``protocol_size`` bounds the live-protocol (churn) experiments,
    which simulate real message exchanges and are far more expensive
    per member than the structural figures.
    """

    name: str
    group_size: int
    sources: int
    protocol_size: int
    space_bits: int = 19


# space_bits shrinks with the group so that the member density n/N stays
# near the paper's 100,000 / 2**19 ~ 0.19 — identifier-window occupancy,
# and with it tree fanout at the deep levels, depends on that density.
SCALES = {
    "bench": ExperimentScale("bench", 2_500, 2, 40, space_bits=14),
    "quick": ExperimentScale("quick", 5_000, 2, 60, space_bits=15),
    "default": ExperimentScale("default", 30_000, 3, 120, space_bits=17),
    "paper": ExperimentScale("paper", 100_000, 3, 200, space_bits=19),
}


def resolve_scale(name: str | None = None) -> ExperimentScale:
    """Pick a scale by name (the ``--scale`` argument); None is "default"."""
    chosen = name or "default"
    try:
        return SCALES[chosen]
    except KeyError:
        raise ValueError(
            f"unknown scale {chosen!r}; choose from {sorted(SCALES)}"
        ) from None


@dataclass
class Series:
    """One plotted line: (x, y) pairs plus a label."""

    label: str
    points: list[tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.points.append((x, y))

    def xs(self) -> list[float]:
        return [x for x, _ in self.points]

    def ys(self) -> list[float]:
        return [y for _, y in self.points]


@dataclass
class FigureResult:
    """Everything one figure module produces.

    ``rows`` is the printable table (the "same rows the paper reports");
    ``series`` carries the raw data for the shape assertions in tests.
    """

    figure: str
    title: str
    series: list[Series] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def get_series(self, label: str) -> Series:
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(f"no series labelled {label!r} in {self.figure}")

    def render(self) -> str:
        """Human-readable block: title, one table per series, notes."""
        lines = [f"== {self.figure}: {self.title} =="]
        for series in self.series:
            lines.append(f"-- {series.label}")
            for x, y in series.points:
                lines.append(f"   {x:>12.4g}  {y:>12.4g}")
        for note in self.notes:
            lines.append(f"   note: {note}")
        return "\n".join(lines)


# -- deterministic per-point randomness -------------------------------------


def point_rng(seed: int, *parts: object) -> Random:
    """An independent, deterministic RNG stream for one sweep point.

    Seeding with a string routes through SHA-512, so the stream is
    stable across processes and platforms (no ``PYTHONHASHSEED``
    dependence) — this is what makes parallel sweep execution
    bit-for-bit identical to the serial run: every point draws from its
    own stream instead of sharing one cursor with its predecessors.
    """
    return Random(":".join([str(seed), *map(str, parts)]))


#: Shared ``--seed`` help text for every CLI in the repo, so the seed
#: contract reads identically everywhere it is offered.
SEED_HELP = (
    "base seed (default 0); each cell derives an independent stream by "
    "string-seeding Random with 'seed:part:...' (SHA-512 underneath), so "
    "--jobs N output is byte-identical to the serial run"
)


# -- keyed snapshot / group caches -------------------------------------------

_DRAW_CACHE: dict[tuple, Any] = {}
_SNAPSHOT_CACHE: dict[Any, RingSnapshot] = {}
_GROUP_CACHE: dict[tuple, MulticastGroup] = {}

#: caches are bounded FIFO so unbounded sweeps cannot exhaust memory
_DRAW_CACHE_MAX = 64
_SNAPSHOT_CACHE_MAX = 24
_GROUP_CACHE_MAX = 32


def clear_caches() -> None:
    """Drop all memoized draws, snapshots and groups (tests, bench/)."""
    _DRAW_CACHE.clear()
    _SNAPSHOT_CACHE.clear()
    _GROUP_CACHE.clear()


def _cache_put(cache: dict, key: tuple, value: Any, maximum: int) -> None:
    if len(cache) >= maximum:
        cache.pop(next(iter(cache)))
    cache[key] = value


def bandwidth_draws(
    bandwidth: BandwidthDistribution, count: int, seed: int
) -> array:
    """Memoized bandwidth draws: one sample column (``array("d")``)
    per (law, n, seed)."""
    key = (bandwidth, count, seed)
    cached = _DRAW_CACHE.get(key)
    if cached is not None:
        perf.COUNTERS.draw_cache_hits += 1
        return cached
    perf.COUNTERS.draw_cache_misses += 1
    draws = array("d", bandwidth.sample_many(count, Random(seed)))
    _cache_put(_DRAW_CACHE, key, draws, _DRAW_CACHE_MAX)
    return draws


def identifier_draws(space: IdentifierSpace, count: int, seed: int) -> array:
    """Memoized member placement: the identifiers ``build_snapshot``
    draws with ``Random(seed)``, once per (space, n, seed) — Figure 6's
    memberships differ in their capacities only, so they share one."""
    key = (space, count, seed)
    cached = _DRAW_CACHE.get(key)
    if cached is not None:
        return cached
    draws = array("Q", sample_identifiers(count, space.size, Random(seed)))
    _cache_put(_DRAW_CACHE, key, draws, _DRAW_CACHE_MAX)
    return draws


# -- member requests ---------------------------------------------------------
#
# A *member request* is a frozen, picklable value object that fully
# determines one membership snapshot.  Requests are the only way
# members cross a process boundary: a task names its members by value
# and the ``--jobs N`` worker that runs it builds them (0.12 s at
# n = 100,000) — the same deterministic build the serial run does.
# Two systems whose snapshots only differ by overlay parameters — e.g.
# the Chord and Koorde baselines, which share ``min_capacity = 1`` —
# map to the *same* request and therefore the same cached snapshot.


@dataclass(frozen=True)
class BandwidthMembers:
    """Members of the Figures 6-8 setup: capacities from bandwidths.

    ``build`` replicates :meth:`MulticastGroup.build` exactly — same
    draws, same capacity model, same identifier placement RNG — so a
    snapshot resolved through a request is byte-identical to one built
    through the facade.
    """

    bandwidth: BandwidthDistribution
    count: int
    space_bits: int
    per_link_kbps: float
    min_capacity: int
    seed: int

    def build(self) -> RingSnapshot:
        """The first build from one draw is that draw's ring, memoized
        beside the draws; every later request over the draw gets the
        ring's members with its own capacity column
        (:meth:`RingSnapshot.with_capacities`), which the capacity model
        maps member by member, so ring order gives the same values."""
        draws = bandwidth_draws(self.bandwidth, self.count, self.seed)
        model = CapacityModel(self.per_link_kbps, minimum=self.min_capacity)
        space = IdentifierSpace(self.space_bits)
        key = (self.bandwidth, space, self.count, self.seed)
        ring = _DRAW_CACHE.get(key)
        if ring is not None:
            return ring.with_capacities(model.capacities(ring.bandwidths))
        ring = RingSnapshot.from_columns(
            space,
            identifier_draws(space, self.count, self.seed),
            model.capacities(draws),
            draws,
        )
        _cache_put(_DRAW_CACHE, key, ring, _DRAW_CACHE_MAX)
        return ring


@dataclass(frozen=True)
class CapacityMembers:
    """Members of the Figures 9-11 setup: capacities drawn directly."""

    spec: GroupSpec
    seed: int

    def build(self) -> RingSnapshot:
        return generate_group(self.spec, seed=self.seed)


MemberRequest = BandwidthMembers | CapacityMembers


def bandwidth_members(
    kind: "SystemKind | SystemDescriptor | str",
    scale: ExperimentScale,
    per_link_kbps: float,
    bandwidth: UniformBandwidth | None = None,
    seed: int = 0,
) -> BandwidthMembers:
    """The member request behind :func:`bandwidth_group`'s snapshot."""
    system = resolve(kind)
    bandwidth = bandwidth if bandwidth is not None else UniformBandwidth()
    return BandwidthMembers(
        bandwidth=bandwidth,
        count=scale.group_size,
        space_bits=scale.space_bits,
        per_link_kbps=per_link_kbps,
        min_capacity=system.min_capacity,
        seed=seed,
    )


def members_snapshot(request: MemberRequest) -> RingSnapshot:
    """Resolve a member request to its snapshot: the process-local
    cache, else a fresh deterministic build (the same members either
    way, in the parent and in every worker)."""
    cached = _SNAPSHOT_CACHE.get(request)
    if cached is not None:
        return cached
    snapshot = request.build()
    _cache_put(_SNAPSHOT_CACHE, request, snapshot, _SNAPSHOT_CACHE_MAX)
    return snapshot


# -- group construction -----------------------------------------------------


def _cached_group(
    system: SystemDescriptor,
    request: MemberRequest,
    uniform_fanout: int,
) -> MulticastGroup:
    """The memoized group of one system over one member request.

    The ring itself only depends on the request: overlays with the
    same capacity floor (e.g. Chord and Koorde baselines) share it.
    """
    key = (system.kind, request, uniform_fanout)
    cached = _GROUP_CACHE.get(key)
    if cached is not None:
        perf.COUNTERS.group_cache_hits += 1
        return cached
    perf.COUNTERS.group_cache_misses += 1
    group = MulticastGroup.from_snapshot(
        system, members_snapshot(request), uniform_fanout=uniform_fanout
    )
    _cache_put(_GROUP_CACHE, key, group, _GROUP_CACHE_MAX)
    return group


def bandwidth_group(
    kind: "SystemKind | SystemDescriptor | str",
    scale: ExperimentScale,
    per_link_kbps: float,
    bandwidth: UniformBandwidth | None = None,
    uniform_fanout: int = DEFAULT_UNIFORM_FANOUT,
    seed: int = 0,
) -> MulticastGroup:
    """A group in the Figures 6-8 setup: capacities from bandwidths."""
    system = resolve(kind)
    request = bandwidth_members(system, scale, per_link_kbps, bandwidth, seed)
    return _cached_group(system, request, uniform_fanout)


def capacity_group(
    kind: "SystemKind | SystemDescriptor | str",
    scale: ExperimentScale,
    capacities: CapacityDistribution,
    uniform_fanout: int = DEFAULT_UNIFORM_FANOUT,
    seed: int = 0,
) -> MulticastGroup:
    """A group in the Figures 9-11 setup: capacities drawn directly."""
    system = resolve(kind)
    spec = GroupSpec(
        size=scale.group_size,
        space_bits=scale.space_bits,
        capacities=capacities,
        min_capacity=system.min_capacity,
    )
    return _cached_group(system, CapacityMembers(spec=spec, seed=seed), uniform_fanout)


def averaged_over_sources(
    group: MulticastGroup,
    scale: ExperimentScale,
    metric: Callable[[FlatTree, RingSnapshot], float],
    seed: int = 0,
) -> float:
    """Run one multicast per source and average a tree metric."""
    rng = Random(seed)
    values = []
    for _ in range(scale.sources):
        source = group.random_member(rng)
        result = group.multicast_from(source)
        values.append(metric(result, group.snapshot))
    return sum(values) / len(values)


def merged_histogram(results: Sequence[FlatTree]) -> dict[int, int]:
    """Sum of per-tree path-length histograms, averaged per tree."""
    total: dict[int, int] = {}
    for result in results:
        for hops, count in result.path_length_histogram().items():
            total[hops] = total.get(hops, 0) + count
    return {
        hops: round(count / len(results)) for hops, count in sorted(total.items())
    }
