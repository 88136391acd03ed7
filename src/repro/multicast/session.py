"""High-level public API: build a group, multicast from any member.

A :class:`MulticastGroup` bundles one membership snapshot with one of
the registered overlay systems and its dissemination routine.  This is
the facade most library users (and all examples) interact with::

    group = MulticastGroup.build(
        "cam-chord",                    # or SystemKind.CAM_CHORD
        bandwidths_kbps=[550, 900, 410, ...],
        per_link_kbps=100,
        seed=7,
    )
    result = group.multicast_from(group.random_member(Random(7)))
    print(result.average_path_length())

Which systems exist, how their overlays are built and which routine
disseminates a message all live in the :mod:`repro.systems` registry —
the group just resolves its :class:`~repro.systems.SystemDescriptor`
and delegates.

Any member can be the source ("any source multicast"): each source
implicitly gets its own tree, which is how the flooding approach
spreads forwarding load across the whole group (Section 5.1).
"""

from __future__ import annotations

from random import Random
from typing import Sequence

from repro.capacity.model import CapacityModel
from repro.idspace.ring import IdentifierSpace
from repro.multicast.kernel import FlatTree
from repro.overlay.base import Node, Overlay, RingSnapshot, build_snapshot
from repro.systems import (
    DEFAULT_UNIFORM_FANOUT,
    SystemDescriptor,
    SystemKind,
    resolve,
)

#: Identifier-space width used throughout the paper's evaluation.
DEFAULT_SPACE_BITS = 19

__all__ = ["DEFAULT_SPACE_BITS", "MulticastGroup", "SystemKind"]


class MulticastGroup:
    """One multicast group with its dedicated overlay network.

    "A dedicated CAM-Chord or CAM-Koorde overlay network is established
    for each multicast group" (Section 2) — hence group == overlay.
    """

    def __init__(
        self,
        kind: "SystemKind | SystemDescriptor | str",
        overlay: Overlay,
    ) -> None:
        self._system = resolve(kind)
        self._overlay = overlay

    # -- construction ---------------------------------------------------

    @classmethod
    def from_snapshot(
        cls,
        kind: "SystemKind | SystemDescriptor | str",
        snapshot: RingSnapshot,
        uniform_fanout: int = DEFAULT_UNIFORM_FANOUT,
    ) -> "MulticastGroup":
        """Wrap an existing membership snapshot.

        ``uniform_fanout`` configures the capacity-oblivious baselines
        (Chord base / Koorde degree) and is ignored by the CAM systems.
        """
        system = resolve(kind)
        overlay = system.build_overlay(snapshot, uniform_fanout=uniform_fanout)
        return cls(system, overlay)

    @classmethod
    def build(
        cls,
        kind: "SystemKind | SystemDescriptor | str",
        bandwidths_kbps: Sequence[float],
        per_link_kbps: float,
        space_bits: int = DEFAULT_SPACE_BITS,
        uniform_fanout: int = DEFAULT_UNIFORM_FANOUT,
        seed: int = 0,
    ) -> "MulticastGroup":
        """Build a group from member upload bandwidths.

        Capacities follow the paper's rule ``c_x = floor(B_x / p)``
        with ``p = per_link_kbps``, clamped to the overlay's floor.
        Members are placed at hash-uniform identifiers drawn with
        ``seed``.
        """
        system = resolve(kind)
        model = CapacityModel(per_link_kbps, minimum=system.min_capacity)
        capacities = model.capacities(list(bandwidths_kbps))
        snapshot = build_snapshot(
            IdentifierSpace(space_bits),
            capacities,
            bandwidths=list(bandwidths_kbps),
            rng=Random(seed),
        )
        return cls.from_snapshot(system, snapshot, uniform_fanout=uniform_fanout)

    # -- introspection ----------------------------------------------------

    @property
    def kind(self) -> SystemKind:
        """Which of the registered systems this group runs."""
        return self._system.kind

    @property
    def system(self) -> SystemDescriptor:
        """The full descriptor of the system this group runs."""
        return self._system

    @property
    def overlay(self) -> Overlay:
        """The underlying overlay network."""
        return self._overlay

    @property
    def snapshot(self) -> RingSnapshot:
        """The membership view."""
        return self._overlay.snapshot

    def __len__(self) -> int:
        return len(self.snapshot)

    def random_member(self, rng: Random) -> Node:
        """A uniformly random member drawn from ``rng`` (e.g. to act as
        multicast source)."""
        return self.snapshot.random_node(rng)

    # -- the service ------------------------------------------------------

    def multicast_from(self, source: Node) -> FlatTree:
        """Deliver one message from ``source`` to every other member.

        Returns the implicit tree the dissemination traced.  Raises
        :class:`KeyError` if ``source`` is not a member (the kernel's
        one membership check).
        """
        return self._system.run_multicast(self._overlay, source)

    def lookup(self, start: Node, key: int):
        """Resolve the member responsible for ``key`` starting at
        ``start`` (used by join/leave in the live protocols)."""
        return self._overlay.lookup(start, key)
