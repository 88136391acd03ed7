"""The trace event vocabulary and its validation.

Every event name is ``layer.kind``; :data:`SCHEMA` maps each name to
the data fields an emitter must supply (optional fields in
:data:`OPTIONAL`).  ``python -m repro.trace check`` (and the CI smoke
job) run :func:`validate_events` over exported files, so the schema
here is the contract between the instrumentation points and the causal
reconstructor.

:data:`READ_SET` is the other half of that contract: the events
:func:`repro.trace.causal.reconstruct` reads, as a tracer filter.
``causal`` takes its multicast message kinds and departure events from
it, and the fault campaign records only it (``TRACER.capture(only=
READ_SET)``); ``tests/test_trace.py`` checks that reconstructing from
the read set alone gives the same record as from a full trace.

Layers:

* ``sim``   — the discrete-event engine: process lifecycle.
* ``net``   — the datagram network: send / deliver / drop / timeout
  and fault injection (partition, heal).
* ``proto`` — the maintenance protocol: stabilize rounds, successor
  eviction, neighbor fixes, iterative lookup hops, peer lifecycle.
* ``mc``    — the multicast data plane: origination (with the member
  set alive at send time), per-member deliveries carrying the tree
  edge (``parent``), duplicate suppressions, repair handoffs, backup
  graft activations and the structural harness's implicit-tree summaries.
"""

from __future__ import annotations

from typing import Iterable

from repro.trace.tracer import TraceEvent

#: event name -> required data fields
SCHEMA: dict[str, tuple[str, ...]] = {
    # simulator layer
    "sim.spawn": ("pid", "name", "delay"),
    "sim.sleep": ("pid", "delay"),
    "sim.wait": ("pid",),
    "sim.exit": ("pid", "outcome"),
    # network layer
    "net.send": ("src", "dst", "kind", "delay"),
    "net.deliver": ("src", "dst", "kind"),
    "net.drop": ("src", "dst", "kind", "reason"),
    "net.timeout": ("src", "dst", "kind", "rid"),
    "net.partition": ("a", "b"),
    "net.heal": ("a", "b"),
    # protocol layer
    "proto.stabilize": ("ident", "succ"),
    "proto.evict": ("ident", "dead"),
    "proto.fix_neighbor": ("ident", "slot", "resolved"),
    "proto.fix_failed": ("ident", "slot"),
    "proto.lookup_hop": ("ident", "key", "hop", "done"),
    "proto.lookup_failed": ("ident", "key"),
    "proto.join": ("ident", "succ"),
    "proto.crash": ("ident",),
    "proto.leave": ("ident",),
    # multicast layer
    "mc.origin": ("mid", "source", "system", "bits", "members", "capacities"),
    "mc.deliver": ("mid", "ident", "depth", "parent"),
    "mc.dup": ("mid", "ident", "sender"),
    "mc.repair": ("mid", "ident", "dead", "replacement"),
    "mc.tree": ("source", "edges"),
    # one per activated backup graft: the feeder's 0-based rank in the
    # root's candidate view, members re-fed under the root (root included)
    "mc.failover.graft": ("mid", "root", "feeder", "rank", "orphans", "detect", "feed"),
}

#: event name -> allowed extra fields
OPTIONAL: dict[str, tuple[str, ...]] = {
    "net.send": ("mid", "limit", "depth", "rid", "reply"),
    "net.deliver": ("mid", "limit", "depth", "rid", "reply"),
    "net.drop": ("mid", "limit", "depth", "rid", "reply"),
    # the multi-group service plane keys mc.* events by group and
    # stamps each send with the group's sequence number; single-group
    # emitters (the protocol peers) omit both
    "mc.origin": ("group", "seq"),
    "mc.deliver": ("group", "seq"),
    "mc.dup": ("group", "seq"),
}

#: reasons a datagram can be dropped (mirrors NetworkStats counters)
DROP_REASONS = ("dead", "loss", "partition", "late")

#: the message kinds that carry multicast payloads
MULTICAST_KINDS = ("mc_region", "mc_flood")

#: What :func:`repro.trace.causal.reconstruct` reads, as a tracer
#: filter (layer -> keys, ``None`` = every key): every ``mc.*`` event,
#: the datagram events of multicast messages and member departures.
READ_SET: dict[str, frozenset[str] | None] = {
    "mc": None,
    "net": frozenset(MULTICAST_KINDS),
    "proto": frozenset(("crash", "leave")),
}


def validate_event(event: TraceEvent) -> list[str]:
    """Schema problems of one event (empty list = valid)."""
    problems: list[str] = []
    name = event.name
    required = SCHEMA.get(name)
    if required is None:
        return [f"seq {event.seq}: unknown event {name!r}"]
    missing = [key for key in required if key not in event.data]
    if missing:
        problems.append(f"seq {event.seq}: {name} missing fields {missing}")
    allowed = set(required) | set(OPTIONAL.get(name, ()))
    extra = [key for key in event.data if key not in allowed]
    if extra:
        problems.append(f"seq {event.seq}: {name} has unexpected fields {extra}")
    if name == "net.drop" and event.data.get("reason") not in DROP_REASONS:
        problems.append(
            f"seq {event.seq}: net.drop reason {event.data.get('reason')!r} "
            f"not in {DROP_REASONS}"
        )
    if event.time < 0:
        problems.append(f"seq {event.seq}: negative timestamp {event.time}")
    return problems


def validate_events(events: Iterable[TraceEvent]) -> list[str]:
    """All schema problems over a stream (also checks seq monotonicity)."""
    problems: list[str] = []
    last_seq = -1
    for event in events:
        if event.seq <= last_seq:
            problems.append(
                f"seq {event.seq}: sequence not strictly increasing "
                f"(previous {last_seq})"
            )
        last_seq = event.seq
        problems.extend(validate_event(event))
    return problems
