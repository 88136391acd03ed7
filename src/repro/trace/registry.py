"""One observability registry: perf counters + trace buffer together.

The parallel experiment engine snapshots observability state around
every task and ships the *delta* back with the task payload.  Before
this module existed that delta was just a
:class:`~repro.perf.PerfCounters` block; the tracer adds a second kind
of per-process accumulating state with exactly the same shipping
needs, so both are folded behind one snapshot/since API:

* :func:`snapshot` — remember the current counter values and trace
  buffer position;
* :func:`since` — the counters incremented and events emitted after a
  snapshot (pickleable; this is what a worker returns).

The engine sums the deltas (:class:`ObsDelta` adds) per figure; it
never folds them back into the live counters or trace buffer.

Because deltas are taken per task and reassembled in deterministic
task-plan order, a ``--jobs N`` run reconstructs the same event stream
a serial run records directly — the property
``tests/test_trace.py::TestSerialParallelEquivalence`` pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import perf
from repro.trace.tracer import TRACER, TraceEvent


@dataclass(frozen=True)
class ObsSnapshot:
    """A resumable position in both accumulators."""

    counters: perf.PerfCounters
    trace_mark: int


@dataclass(frozen=True)
class ObsDelta:
    """Everything one task produced: counter increments + trace slice."""

    counters: perf.PerfCounters = field(default_factory=perf.PerfCounters)
    events: tuple[TraceEvent, ...] = ()

    def __add__(self, other: "ObsDelta") -> "ObsDelta":
        return ObsDelta(self.counters + other.counters, self.events + other.events)


def snapshot() -> ObsSnapshot:
    """Current perf counter values + trace buffer length."""
    return ObsSnapshot(perf.snapshot(), TRACER.mark())


def since(start: ObsSnapshot) -> ObsDelta:
    """The observability delta accumulated after ``start``."""
    return ObsDelta(perf.since(start.counters), TRACER.events_since(start.trace_mark))
