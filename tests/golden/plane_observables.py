"""Golden observables of the service plane on three fixed inputs.

``plane_observables.json`` (next to this module) holds SHA-256 digests
of everything a send path may not change — receipts with their
delivery *order*, sequence audits, the ``mc.*`` trace JSONL, report
rows, per-host forwarding load — plus the raw deferral count, for:

* the full extN ``quick`` matrix (4 cells, churned ones included),
* a contended-uplink scenario (one 10 kbps host in every group, so
  reservations defer and the wavefront interleaves with backpressure),
* a bounded-run scenario observed at every ``run(until)`` cut,
* a completion-follow-up scenario: a send's completion callback
  originates the next send at the very instant another group still has
  deliveries tied at that time, so the wavefront must stop exactly at
  each completion it schedules (recorded at ``38c8d5f``, the last
  commit that re-read the engine's horizon before every delivery).

**Where the digests came from.**  They were recorded at commit
``e71930c`` — the last one carrying the event-per-delivery walker —
by running this module there with that commit's environment escape
hatch selecting the walker, and checked there to be the very bytes
the template path produces (the exact commands are in CHANGES.md,
PR 12).  So they pin the reference's actual output, not whatever the
surviving path happened to produce.  ``tests/test_plane_cache.py``
compares every run against them.

**Regenerating.**  An *intentional* output change (a new trace field,
a different tie-break) is recorded in one step, committed together
with the change that explains it::

    PYTHONPATH=src python -m tests.golden.plane_observables
"""

from __future__ import annotations

import json
from hashlib import sha256
from pathlib import Path
from random import Random
from typing import Any, Callable, Iterator

from repro.experiments.common import SCALES, point_rng
from repro.experiments.ext_service import _workload_spec, sweep
from repro.multicast.plane import ServicePlane
from repro.trace.tracer import TRACER
from repro.workloads import generate_service_workload

GOLDEN_PATH = Path(__file__).with_suffix(".json")


def _digest(value: Any) -> str:
    """SHA-256 of the value's JSON form.  Key order is kept, not
    sorted: insertion order is commit order, and that is pinned too."""
    return sha256(json.dumps(value).encode()).hexdigest()


def observe(plane: ServicePlane, trace: str | None = None) -> dict[str, Any]:
    """Digest everything observable about a plane, one per surface so
    a mismatch names what moved."""
    receipts = [
        [
            r.group, r.seq, r.mid, r.source, r.message_kbits, r.origin_time,
            r.members, list(r.delivered.items()), r.complete,
        ]
        for r in plane.receipts()
    ]
    audit = plane.audit()
    report = plane.report()
    return {
        "receipts": _digest(receipts),
        "audit": _digest([audit.gaps, audit.dups, audit.unexpected]),
        "trace": _digest(trace),
        "report": _digest(
            [
                report.time, report.rows,
                report.total_deliveries, report.total_deferrals,
            ]
        ),
        "host_load": _digest(list(plane.service.host_load_kbits().items())),
        "deferrals": plane.budget.deferrals(),
    }


def _traced(drive: Callable[[], None]) -> str:
    """Run ``drive`` under the tracer; the emitted events as JSONL."""
    TRACER.enable()
    try:
        drive()
        return "\n".join(
            json.dumps(event.to_json_dict()) for event in TRACER.events()
        )
    finally:
        TRACER.disable()
        TRACER.clear()


def extn_cell(point: tuple[int, float]) -> dict[str, Any]:
    """One extN quick cell (seed 0) end to end, traced and
    quiesce-verified."""
    scale = SCALES["quick"]
    groups, churn = point
    workload = generate_service_workload(
        _workload_spec(scale, groups, churn),
        seed=point_rng(0, "extN", groups, churn).randrange(1 << 31),
    )
    plane = ServicePlane(space_bits=scale.space_bits)
    for name, kbps in workload.hosts:
        plane.register_host(name, kbps)

    def drive() -> None:
        plane.replay(workload.events)
        plane.drain()

    trace = _traced(drive)
    plane.verify_quiesced()
    return observe(plane, trace)


def contended_uplink() -> dict[str, Any]:
    """One slow host shared by every group: the budget saturates and
    deliveries defer behind each other across groups."""
    plane = ServicePlane(space_bits=14)
    plane.register_host("slow", 10.0)  # 10 kbps uplink
    for index in range(12):
        plane.register_host(f"h{index}", 400.0)
    rng = Random(7)
    for g in range(4):
        plane.create_group(
            f"g{g}", ["slow"] + [f"h{i}" for i in range(g, g + 6)]
        )

    def drive() -> None:
        for step in range(25):
            group = f"g{rng.randrange(4)}"
            source = rng.choice(plane.service.members_of(group))
            plane.send_later(step * 0.2, group, source, 16.0)
        plane.drain()

    trace = _traced(drive)
    plane.verify_quiesced()
    return observe(plane, trace)


def bounded_run() -> list[dict[str, Any]]:
    """``run(until)`` bounds the wavefront's look-ahead: the state at
    every cut is observed, then the drained end state."""
    plane = ServicePlane(space_bits=14)
    for index in range(16):
        plane.register_host(f"h{index}", 400.0)
    plane.create_group("g", [f"h{i}" for i in range(10)])
    states = []
    plane.send("g", "h0", 40.0)
    for until in (0.02, 0.05, 0.011, 0.3, 2.0):
        plane.run(plane.now + until)
        states.append(observe(plane))
        plane.send("g", "h1", 24.0)
    plane.drain()
    plane.verify_quiesced()
    states.append(observe(plane))
    return states


def completion_followup() -> dict[str, Any]:
    """Equal uplinks and sizes make delivery times tie across groups;
    each completion in the small groups originates the next send at
    that instant, in the middle of the wide group's tied deliveries."""
    plane = ServicePlane(space_bits=14)
    for index in range(24):
        plane.register_host(f"h{index}", 512.0)  # 8 kbits = 1/64 s, exact
    plane.create_group("small", [f"h{i}" for i in range(3)])
    plane.create_group("wide", [f"h{i}" for i in range(4, 20)])
    plane.create_group("other", [f"h{i}" for i in range(20, 24)])
    tied: list[int] = []

    def follow_up(left: int) -> Callable[[Any], None]:
        def fired(_settled: Any) -> None:
            now = plane.now
            tied.append(
                sum(1 for entry in plane._pending if entry[0] == now)
            )
            if left:
                group, source = (
                    ("other", "h20") if left % 2 else ("small", "h1")
                )
                plane.send(group, source, 8.0).completion.add_callback(
                    follow_up(left - 1)
                )

        return fired

    def drive() -> None:
        for source in ("h4", "h9", "h13", "h17"):
            plane.send("wide", source, 8.0)
        plane.send("small", "h0", 8.0).completion.add_callback(follow_up(6))
        plane.drain()

    trace = _traced(drive)
    plane.verify_quiesced()
    # the scenario is only worth its digest while the ties really occur
    assert sum(1 for count in tied if count) >= 4, tied
    return observe(plane, trace)


def scenarios() -> Iterator[tuple[str, Callable[[], Any]]]:
    """(golden key, thunk computing its observables), in file order."""
    for groups, churn in sweep(SCALES["quick"]):
        yield (
            f"extn_quick/groups={groups},churn={churn}",
            lambda point=(groups, churn): extn_cell(point),
        )
    yield "contended_uplink", contended_uplink
    yield "bounded_run", bounded_run
    yield "completion_followup", completion_followup


def load() -> dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({key: thunk() for key, thunk in scenarios()}, indent=2)
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
