"""The process-global system registry: one descriptor per system.

Lookup is by :class:`~repro.systems.kinds.SystemKind` or by canonical
CLI name; iteration order is registration order (the four paper systems
register in enum order).  Factories import their overlay / multicast /
peer modules lazily, so importing the registry — which the CLI layers
do just to enumerate ``--system`` choices — costs nothing.

Adding a fifth system is one :func:`register` call with a new
descriptor; every dispatch site (``MulticastGroup``, ``Cluster``, the
churn runner, the experiment sweeps) picks it up from here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.capacity.model import (
    CAM_CHORD_MIN_CAPACITY,
    CAM_KOORDE_MIN_CAPACITY,
)
from repro.systems.descriptor import (
    CAPACITY_DERIVED,
    UNIFORM,
    SystemDescriptor,
)
from repro.systems.kinds import SystemKind

if TYPE_CHECKING:
    from repro.multicast.kernel import FlatTree
    from repro.overlay.base import Node, Overlay, RingSnapshot
    from repro.protocol.base_peer import BasePeer

_BY_KIND: dict[SystemKind, SystemDescriptor] = {}
_BY_NAME: dict[str, SystemDescriptor] = {}


def register(descriptor: SystemDescriptor) -> SystemDescriptor:
    """Add a system to the registry (returns it, for chaining).

    The canonical name is the descriptor's ``kind.value``; registering
    the same kind or name twice is an error — names must never drift.
    """
    if descriptor.kind in _BY_KIND:
        raise ValueError(f"system kind already registered: {descriptor.kind}")
    if descriptor.name in _BY_NAME:
        raise ValueError(f"system name already registered: {descriptor.name!r}")
    _BY_KIND[descriptor.kind] = descriptor
    _BY_NAME[descriptor.name] = descriptor
    return descriptor


def descriptor_for(kind: SystemKind) -> SystemDescriptor:
    """The descriptor of one system kind."""
    try:
        return _BY_KIND[kind]
    except KeyError:
        raise ValueError(
            f"no descriptor registered for {kind!r}; "
            f"registered kinds: {[k.value for k in _BY_KIND]}"
        ) from None


def get_system(name: str) -> SystemDescriptor:
    """Look a system up by its canonical CLI name.

    Unknown names raise with the full list of valid names, so a typo'd
    ``--system`` flag tells the user what would have worked.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown system {name!r}; choose from {sorted(_BY_NAME)}"
        ) from None


def resolve(system: "SystemDescriptor | SystemKind | str") -> SystemDescriptor:
    """Normalize any way of naming a system to its descriptor."""
    if isinstance(system, SystemDescriptor):
        return system
    if isinstance(system, SystemKind):
        return descriptor_for(system)
    if isinstance(system, str):
        return get_system(system)
    raise TypeError(
        f"cannot resolve a system from {type(system).__name__}: {system!r}"
    )


def all_descriptors() -> tuple[SystemDescriptor, ...]:
    """Every registered system, in registration order."""
    return tuple(_BY_KIND.values())


def system_names() -> tuple[str, ...]:
    """Canonical names of every registered system, in registration order."""
    return tuple(_BY_NAME)


def capacity_aware_systems() -> tuple[SystemDescriptor, ...]:
    """The registered capacity-aware systems (the paper's contributions)."""
    return tuple(d for d in all_descriptors() if d.capacity_aware)


# -- the four paper systems ---------------------------------------------------
#
# Factories import lazily: the structural overlay modules only load when
# an overlay is actually built, the protocol (simulator) modules only
# when a live cluster is.


def _cam_chord_overlay(snapshot: "RingSnapshot", uniform_fanout: int) -> "Overlay":
    from repro.overlay.cam_chord import CamChordOverlay

    return CamChordOverlay(snapshot)


def _cam_koorde_overlay(snapshot: "RingSnapshot", uniform_fanout: int) -> "Overlay":
    from repro.overlay.cam_koorde import CamKoordeOverlay

    return CamKoordeOverlay(snapshot)


def _chord_overlay(snapshot: "RingSnapshot", uniform_fanout: int) -> "Overlay":
    from repro.overlay.chord import ChordOverlay

    return ChordOverlay(snapshot, base=uniform_fanout)


def _koorde_overlay(snapshot: "RingSnapshot", uniform_fanout: int) -> "Overlay":
    from repro.overlay.koorde import KoordeOverlay

    return KoordeOverlay(snapshot, degree=uniform_fanout)


def _cam_chord_cast(overlay: "Overlay", source: "Node") -> "FlatTree":
    from repro.multicast.cam_chord import cam_chord_multicast

    return cam_chord_multicast(overlay, source)


def _cam_koorde_cast(overlay: "Overlay", source: "Node") -> "FlatTree":
    from repro.multicast.cam_koorde import cam_koorde_multicast

    return cam_koorde_multicast(overlay, source)


def _koorde_cast(overlay: "Overlay", source: "Node") -> "FlatTree":
    from repro.multicast.koorde_flood import koorde_flood

    return koorde_flood(overlay, source)


def _cam_chord_peer() -> type["BasePeer"]:
    from repro.protocol.cam_chord_peer import CamChordPeer

    return CamChordPeer


def _cam_koorde_peer() -> type["BasePeer"]:
    from repro.protocol.cam_koorde_peer import CamKoordePeer

    return CamKoordePeer


def _koorde_peer() -> type["BasePeer"]:
    from repro.protocol.koorde_peer import KoordePeer

    return KoordePeer


register(
    SystemDescriptor(
        kind=SystemKind.CAM_CHORD,
        description="capacity-aware Chord: region-splitting implicit trees (§3)",
        min_capacity=CAM_CHORD_MIN_CAPACITY,
        fanout=CAPACITY_DERIVED,
        overlay_factory=_cam_chord_overlay,
        multicast_routine=_cam_chord_cast,
        peer_loader=_cam_chord_peer,
        builds_single_tree=True,
        baseline=SystemKind.CHORD,
        # The flat kernel rebuilds this system's frozen-epoch tree, so
        # the fault campaign can install precomputed backup subtrees
        # (repro.multicast.backup) — likewise for the other three.
        backup_capable=True,
    )
)

register(
    SystemDescriptor(
        kind=SystemKind.CAM_KOORDE,
        description="capacity-aware Koorde: evenly-spread de Bruijn flooding (§4)",
        min_capacity=CAM_KOORDE_MIN_CAPACITY,
        fanout=CAPACITY_DERIVED,
        overlay_factory=_cam_koorde_overlay,
        multicast_routine=_cam_koorde_cast,
        peer_loader=_cam_koorde_peer,
        builds_single_tree=False,
        baseline=SystemKind.KOORDE,
        backup_capable=True,
    )
)

register(
    SystemDescriptor(
        kind=SystemKind.CHORD,
        description="base-k Chord baseline: balanced splitter, uniform fanout",
        min_capacity=1,
        fanout=UNIFORM,
        overlay_factory=_chord_overlay,
        # The Figure 6 "Chord" baseline runs the paper's balanced
        # region-splitting multicast with a uniform fanout (DESIGN.md
        # decision 9); El-Ansary's broadcast is compared separately in
        # the balance ablation (extE).
        multicast_routine=_cam_chord_cast,
        # A CamChordPeer fleet with every capacity pinned to k *is*
        # live base-k Chord — the slot set degenerates to the plain
        # finger table (see tests/test_equivalences.py).
        peer_loader=_cam_chord_peer,
        builds_single_tree=True,
        backup_capable=True,
    )
)

register(
    SystemDescriptor(
        kind=SystemKind.KOORDE,
        description="degree-k Koorde baseline: clustered de Bruijn flooding",
        min_capacity=1,
        fanout=UNIFORM,
        overlay_factory=_koorde_overlay,
        multicast_routine=_koorde_cast,
        peer_loader=_koorde_peer,
        builds_single_tree=False,
        # The live flood forwards over predecessor and successor on top
        # of the uniform de Bruijn window (FloodPeer.flood_links), so
        # the delivery-tree degree bound is capacity + 2.
        fanout_slack=2,
        backup_capable=True,
    )
)


def _check_exhaustive(kinds: Iterable[SystemKind] = SystemKind) -> None:
    missing = [kind for kind in kinds if kind not in _BY_KIND]
    if missing:  # pragma: no cover - import-time invariant
        raise RuntimeError(f"system kinds without descriptors: {missing}")


_check_exhaustive()
