"""Static-vs-live parity: the same spec must yield the same tree.

The library has two worlds: the *static* one (a structural overlay over
a :class:`~repro.overlay.base.RingSnapshot`, multicast as a pure graph
walk) and the *live* one (protocol peers on the discrete-event
simulator, multicast as datagrams).  The paper's figures come from the
static world; the resilience claims from the live one.  The parity
harness pins them together: build both worlds from one
:class:`~repro.systems.spec.MemberSpec`, converge the live overlay
without churn, multicast from the same source in both, and reconstruct
the live dissemination tree from the structured trace
(:func:`repro.trace.causal.reconstruct`).  On a converged ring the live
peers execute the same splitting code against the same resolver
answers, so:

* every system must deliver to the same receivers at the same depths
  (the network has uniform latency, so flood arrival order equals BFS
  order);
* single-tree systems (``builds_single_tree``) must additionally
  produce the *exact same parent edges* and zero duplicate deliveries;
* both worlds must satisfy exactly-once delivery.

Any divergence means the protocol's tables, the structural resolver, or
the descriptor wiring drifted — the harness reports every mismatch
rather than stopping at the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.systems.descriptor import DEFAULT_UNIFORM_FANOUT, SystemDescriptor
from repro.systems.kinds import SystemKind
from repro.systems.registry import resolve
from repro.systems.spec import MemberSpec

if TYPE_CHECKING:
    from repro.multicast.kernel import FlatTree
    from repro.trace.causal import MulticastRecord


#: Seconds of churn-free maintenance per convergence try of the live
#: cluster, and the seconds its multicast gets to propagate.
PARITY_SETTLE = 200.0
PARITY_WINDOW = 15.0


@dataclass(frozen=True)
class ParityReport:
    """The two trees one spec produced, and how they compare."""

    system: str
    source: int
    members: frozenset[int]
    static_depths: dict[int, int]
    live_depths: dict[int, int]
    static_edges: frozenset[tuple[int, int]]
    live_edges: frozenset[tuple[int, int]]
    edges_compared: bool
    live_duplicates: int
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """True when the live world reproduced the static tree."""
        return not self.mismatches

    def summary(self) -> str:
        verdict = "parity" if self.ok else "DIVERGED"
        return (
            f"{self.system}: n={len(self.members)} source={self.source} "
            f"{verdict}"
            + ("" if self.ok else f" ({'; '.join(self.mismatches)})")
        )


def _compare(
    descriptor: SystemDescriptor,
    source: int,
    members: frozenset[int],
    static: "FlatTree",
    record: "MulticastRecord",
) -> ParityReport:
    static_depths = dict(static.depth)
    live_depths = {
        ident: depth for ident, (_, depth, _) in record.deliveries.items()
    }
    static_edges = frozenset(
        (parent, child)
        for child, parent in static.parent.items()
        if parent is not None
    )
    live_edges = frozenset(record.actual_edges())

    mismatches: list[str] = []
    static_receivers = set(static_depths)
    live_receivers = set(live_depths)
    if static_receivers != members:
        missing = sorted(members - static_receivers)[:5]
        mismatches.append(f"static missed members, e.g. {missing}")
    if live_receivers != members:
        missing = sorted(members - live_receivers)[:5]
        extra = sorted(live_receivers - members)[:5]
        mismatches.append(
            f"live delivery set wrong (missing e.g. {missing}, extra e.g. {extra})"
        )
    if static_receivers == live_receivers and static_depths != live_depths:
        diff = sorted(
            ident
            for ident in static_depths
            if static_depths[ident] != live_depths[ident]
        )[:5]
        mismatches.append(f"depths differ, e.g. at {diff}")
    if descriptor.builds_single_tree:
        if static_edges != live_edges:
            missing_edges = sorted(static_edges - live_edges)[:3]
            extra_edges = sorted(live_edges - static_edges)[:3]
            mismatches.append(
                f"tree edges differ (static-only e.g. {missing_edges}, "
                f"live-only e.g. {extra_edges})"
            )
        if record.duplicates:
            mismatches.append(
                f"{len(record.duplicates)} duplicate deliveries in a "
                "single-tree system"
            )

    return ParityReport(
        system=descriptor.name,
        source=source,
        members=members,
        static_depths=static_depths,
        live_depths=live_depths,
        static_edges=static_edges,
        live_edges=live_edges,
        edges_compared=descriptor.builds_single_tree,
        live_duplicates=len(record.duplicates),
        mismatches=tuple(mismatches),
    )


def check_parity(
    system: "SystemDescriptor | SystemKind | str",
    spec: MemberSpec,
    uniform_fanout: int = DEFAULT_UNIFORM_FANOUT,
    seed: int = 0,
) -> ParityReport:
    """Build both worlds from ``spec`` and compare their trees.

    The live cluster bootstraps, converges without churn (up to ten
    extra :data:`PARITY_SETTLE` stretches, until every neighbor-table
    slot is accurate), then multicasts from the spec's first member
    under the structured tracer for :data:`PARITY_WINDOW` seconds.
    The live run is read inside a ``TRACER.capture()``, which leaves
    the tracer's flag and buffer as it found them: earlier events
    survive, the run's own are dropped.
    """
    descriptor = resolve(system)
    members = frozenset(spec.identifiers)
    source_ident = spec.identifiers[0]

    # Static world: snapshot -> overlay -> one pure-graph multicast.
    snapshot = spec.snapshot(descriptor.min_capacity)
    overlay = descriptor.build_overlay(snapshot, uniform_fanout=uniform_fanout)
    static = descriptor.run_multicast(overlay, snapshot.node_at(source_ident))
    static.verify_exactly_once(set(members))

    # Live world: same spec, protocol peers, converged without churn.
    from repro.protocol.cluster import Cluster
    from repro.trace.causal import reconstruct
    from repro.trace.tracer import TRACER

    cluster = Cluster(
        descriptor,
        spec,
        seed=seed,
        uniform_fanout=uniform_fanout,
    )
    cluster.bootstrap()
    cluster.run(PARITY_SETTLE)
    for _ in range(10):
        if cluster.neighbor_table_accuracy() == 1.0:
            break
        cluster.run(PARITY_SETTLE)
    else:
        raise RuntimeError(
            f"{descriptor.name}: live neighbor tables failed to converge "
            f"(accuracy {cluster.neighbor_table_accuracy():.3f})"
        )

    with TRACER.capture() as mark:
        mid = cluster.multicast_from(source_ident)
        cluster.run(PARITY_WINDOW)
        record = reconstruct(TRACER.events_since(mark), mid)

    return _compare(descriptor, source_ident, members, static, record)
