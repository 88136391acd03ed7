"""One frozen descriptor per overlay system.

A :class:`SystemDescriptor` bundles everything the codebase needs to
know about one of the evaluated systems: its canonical name, capacity
floor, fanout policy (capacity-derived vs uniform), how to build its
structural overlay over a snapshot, which routine disseminates a
multicast over that overlay, and which live peer class runs it on the
discrete-event protocol simulator.  Every dispatch site — the
:class:`~repro.multicast.session.MulticastGroup` facade, the
:class:`~repro.protocol.cluster.Cluster` driver, the churn runner and
the experiment harness — goes through a descriptor instead of
branching on :class:`~repro.systems.kinds.SystemKind`, so adding a
fifth system is one :func:`repro.systems.registry.register` call.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ClassVar

from repro.systems.kinds import SystemKind

if TYPE_CHECKING:
    from repro.multicast.kernel import FlatTree
    from repro.overlay.base import Node, Overlay, RingSnapshot
    from repro.protocol.base_peer import BasePeer

#: Fanout the capacity-oblivious baselines default to when none is
#: configured (base-2 Chord / degree-2 Koorde, the classic systems).
DEFAULT_UNIFORM_FANOUT = 2


class FanoutPolicy(ABC):
    """How a system sizes each node's multicast fanout.

    The paper's convention — the CAM systems derive fanout from node
    capacity ``c_x = floor(B_x / p)`` and are swept through the
    per-link rate ``p``, while the baselines give every node the same
    uniform fanout ``k`` and are swept through ``k`` (``uniform_fanout``
    is simply ignored by the CAM overlays) — lives here, in exactly one
    place, instead of in ``capacity_aware`` branches at the call sites.
    """

    capacity_aware: ClassVar[bool]

    @abstractmethod
    def group_build_args(
        self, knob: float, default_per_link_kbps: float
    ) -> tuple[float, int]:
        """``(per_link_kbps, uniform_fanout)`` for one sweep point.

        ``knob`` is the value the evaluation sweeps for this system:
        the per-link rate ``p`` for capacity-aware systems, the uniform
        fanout ``k`` for the baselines.
        """

    @abstractmethod
    def configured_average_fanout(
        self, knob: float, mean_bandwidth_kbps: float
    ) -> float:
        """The configured average fanout a sweep point targets (the
        Figure 6 x-axis): ``E[B] / p`` for capacity-aware systems,
        ``k`` itself for the baselines."""

    @abstractmethod
    def live_capacity(self, capacity: int, uniform_fanout: int) -> int:
        """The capacity handed to a live peer.

        Live baselines reinterpret peer capacity as the uniform degree
        (a ``CamChordPeer`` fleet with every capacity pinned to ``k``
        *is* live base-``k`` Chord), so the policy decides whether the
        member's own capacity or the uniform fanout wins.
        """


class CapacityDerivedFanout(FanoutPolicy):
    """CAM systems: fanout is the node's capacity, swept through ``p``."""

    capacity_aware = True

    def group_build_args(
        self, knob: float, default_per_link_kbps: float
    ) -> tuple[float, int]:
        return (knob, DEFAULT_UNIFORM_FANOUT)

    def configured_average_fanout(
        self, knob: float, mean_bandwidth_kbps: float
    ) -> float:
        return mean_bandwidth_kbps / knob

    def live_capacity(self, capacity: int, uniform_fanout: int) -> int:
        return capacity


class UniformFanout(FanoutPolicy):
    """Baselines: every node gets the same fanout, swept through ``k``."""

    capacity_aware = False

    def group_build_args(
        self, knob: float, default_per_link_kbps: float
    ) -> tuple[float, int]:
        return (default_per_link_kbps, int(knob))

    def configured_average_fanout(
        self, knob: float, mean_bandwidth_kbps: float
    ) -> float:
        return knob

    def live_capacity(self, capacity: int, uniform_fanout: int) -> int:
        return uniform_fanout


#: Shared policy instances (policies are stateless).
CAPACITY_DERIVED = CapacityDerivedFanout()
UNIFORM = UniformFanout()


@dataclass(frozen=True)
class SystemDescriptor:
    """Everything the codebase knows about one overlay system.

    ``overlay_factory(snapshot, uniform_fanout)`` builds the structural
    overlay (capacity-aware factories ignore the fanout);
    ``multicast_routine(overlay, source)`` disseminates one message and
    returns the implicit tree; ``peer_loader()`` lazily resolves the
    live protocol node class (lazy so that importing the registry never
    drags in the simulator).  ``builds_single_tree`` distinguishes
    region-splitting systems (one implicit single-parent tree per
    source) from floods (arrival order decides each parent, so only the
    receiver set and depth profile are structural invariants).
    ``baseline`` names the capacity-oblivious counterpart a CAM system
    is evaluated against (Figure 7), ``None`` for the baselines
    themselves.  ``fanout_slack`` is the number of delivery-tree
    children a live node may legitimately have *beyond* its capacity —
    zero for every system whose degree bound is the paper's
    ``degree <= capacity`` invariant, and 2 for the plain-Koorde
    baseline, whose flood forwards over the ring links (predecessor and
    successor) in addition to its uniform de Bruijn window.  The
    fault-injection fanout oracle checks against
    ``capacity + fanout_slack``.
    """

    kind: SystemKind
    description: str
    min_capacity: int
    fanout: FanoutPolicy
    overlay_factory: Callable[["RingSnapshot", int], "Overlay"]
    multicast_routine: Callable[["Overlay", "Node"], "FlatTree"]
    peer_loader: Callable[[], type["BasePeer"]]
    builds_single_tree: bool
    baseline: SystemKind | None = None
    fanout_slack: int = 0
    #: Whether :mod:`repro.multicast.backup` can precompute failover
    #: subtrees for the system — true whenever the flat kernel can
    #: rebuild the frozen epoch's tree (all four registered systems
    #: can); a hypothetical system without a structural tree builder
    #: would register ``False`` and the fault campaign's failover mode
    #: would refuse it instead of silently measuring nothing.
    backup_capable: bool = True

    @property
    def name(self) -> str:
        """Canonical CLI/display name — always the enum value."""
        return self.kind.value

    @property
    def capacity_aware(self) -> bool:
        """Whether fanout follows node capacity (delegates to the policy)."""
        return self.fanout.capacity_aware

    def build_overlay(
        self, snapshot: "RingSnapshot", uniform_fanout: int = DEFAULT_UNIFORM_FANOUT
    ) -> "Overlay":
        """The structural overlay over one membership snapshot."""
        return self.overlay_factory(snapshot, uniform_fanout)

    def run_multicast(self, overlay: "Overlay", source: "Node") -> "FlatTree":
        """Disseminate one message; returns the implicit tree."""
        return self.multicast_routine(overlay, source)

    def live_peer_class(self) -> type["BasePeer"]:
        """The live protocol node class (imported on first use)."""
        return self.peer_loader()

    def live_capacity(self, capacity: int, uniform_fanout: int) -> int:
        """Capacity for a live peer built from a member's capacity."""
        return self.fanout.live_capacity(capacity, uniform_fanout)

    def live_fanout_bound(self, capacity: int) -> int:
        """Most delivery-tree children a live node of ``capacity`` may
        have without violating the system's degree invariant."""
        return capacity + self.fanout_slack
