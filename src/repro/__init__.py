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

from importlib import import_module


def lazy_exports(namespace: dict, exports: dict[str, str]):
    """A module ``__getattr__`` (PEP 562) that imports an export's
    module on first use and binds the name in ``namespace``."""

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = namespace[name] = getattr(import_module(module), name)
        return value

    return __getattr__


# Exports resolve on first use (PEP 562): ``import repro.<module>``
# then loads that module's own imports, not every subsystem's.
_EXPORTS = {
    "CapacityModel": "repro.capacity",
    "FixedCapacity": "repro.capacity",
    "UniformBandwidth": "repro.capacity",
    "UniformCapacity": "repro.capacity",
    "IdentifierSpace": "repro.idspace",
    "TreeStats": "repro.metrics.tree_stats",
    "summarize_tree": "repro.metrics.tree_stats",
    "sustainable_throughput": "repro.metrics.throughput",
    "FlatTree": "repro.multicast.kernel",
    "MulticastGroup": "repro.multicast.session",
    "SystemKind": "repro.multicast.session",
    "cam_chord_multicast": "repro.multicast.cam_chord",
    "cam_koorde_multicast": "repro.multicast.cam_koorde",
    "chord_broadcast": "repro.multicast.chord_broadcast",
    "koorde_flood": "repro.multicast.koorde_flood",
    "CamChordOverlay": "repro.overlay",
    "CamKoordeOverlay": "repro.overlay",
    "ChordOverlay": "repro.overlay",
    "KoordeOverlay": "repro.overlay",
    "Node": "repro.overlay",
    "RingSnapshot": "repro.overlay",
    "MemberSpec": "repro.systems",
    "SystemDescriptor": "repro.systems",
    "all_descriptors": "repro.systems",
    "get_system": "repro.systems",
    "GroupSpec": "repro.workloads",
    "generate_group": "repro.workloads",
}
__getattr__ = lazy_exports(globals(), _EXPORTS)

__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]
