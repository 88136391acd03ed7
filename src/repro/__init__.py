"""repro — Resilient Capacity-Aware Multicast on Overlay Networks.

A full reimplementation of CAM-Chord and CAM-Koorde (Zhang, Chen,
Ling, Chow — ICDCS 2005) together with the plain Chord / Koorde
baselines, the bottleneck-throughput model, a discrete-event protocol
simulator for churn/resilience studies, and the harness that
regenerates every figure of the paper's evaluation.

Quickstart::

    from random import Random
    from repro import MulticastGroup

    rng = Random(42)
    bandwidths = [rng.uniform(400, 1000) for _ in range(1000)]
    group = MulticastGroup.build(
        "cam-chord", bandwidths, per_link_kbps=100, seed=42
    )
    tree = group.multicast_from(group.random_member(rng))
    print(tree.receiver_count, tree.average_path_length())

Which systems exist — and everything about them — lives in the
:mod:`repro.systems` registry: ``get_system("cam-koorde")`` returns the
frozen :class:`~repro.systems.SystemDescriptor` that every layer
(structural overlays, live protocol clusters, the experiment harness)
dispatches through.
"""

from repro.capacity import (
    CapacityModel,
    FixedCapacity,
    UniformBandwidth,
    UniformCapacity,
)
from repro.idspace import IdentifierSpace
from repro.metrics import (
    TreeStats,
    summarize_tree,
    sustainable_throughput,
)
from repro.multicast import (
    FlatTree,
    MulticastGroup,
    SystemKind,
    cam_chord_multicast,
    cam_koorde_multicast,
    chord_broadcast,
    koorde_flood,
)
from repro.overlay import (
    CamChordOverlay,
    CamKoordeOverlay,
    ChordOverlay,
    KoordeOverlay,
    Node,
    RingSnapshot,
)
from repro.systems import (
    MemberSpec,
    SystemDescriptor,
    all_descriptors,
    get_system,
)
from repro.workloads import GroupSpec, generate_group

__version__ = "1.0.0"

__all__ = [
    "CapacityModel",
    "FixedCapacity",
    "UniformBandwidth",
    "UniformCapacity",
    "IdentifierSpace",
    "TreeStats",
    "summarize_tree",
    "sustainable_throughput",
    "MemberSpec",
    "FlatTree",
    "MulticastGroup",
    "SystemDescriptor",
    "SystemKind",
    "all_descriptors",
    "get_system",
    "cam_chord_multicast",
    "cam_koorde_multicast",
    "chord_broadcast",
    "koorde_flood",
    "CamChordOverlay",
    "CamKoordeOverlay",
    "ChordOverlay",
    "KoordeOverlay",
    "Node",
    "RingSnapshot",
    "GroupSpec",
    "generate_group",
    "__version__",
]
