"""The process-global structured event tracer.

One :class:`Tracer` instance (:data:`TRACER`) lives per process.
Instrumentation points across the simulator, network, protocol and
multicast layers are all written the same way::

    from repro.trace.tracer import TRACER

    if TRACER.enabled:
        TRACER.emit(sim.now, "net", "drop", src=a, dst=b, reason="loss")

Disabled-mode cost is a single attribute load + truthiness check —
``TRACER.enabled`` is a plain bool slot — so the tracer stays compiled
into every hot path permanently, exactly like the :mod:`repro.perf`
counters.  Enabled mode appends one :class:`TraceEvent` to an in-memory
buffer; nothing is formatted or written until an exporter runs.

Events carry the *simulated* clock (deterministic), a monotonically
increasing per-process sequence number (tie-breaker and stable sort
key), a coarse ``layer`` (``sim`` / ``net`` / ``proto`` / ``mc``) and a
``kind`` within the layer; everything else rides in the ``data`` dict.
Parallel experiment workers buffer locally and ship
:meth:`events_since` slices back with their task results; the engine
re-sequences them deterministically (see :mod:`repro.trace.registry`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterable, Iterator, NamedTuple


class TraceEvent(NamedTuple):
    """One structured trace record.

    ``time`` is simulated seconds for events emitted under a running
    :class:`~repro.sim.engine.Simulator` and ``0.0`` for structural
    (snapshot-based) work that has no clock.
    """

    seq: int
    time: float
    layer: str
    kind: str
    data: dict[str, Any]

    @property
    def name(self) -> str:
        """The fully qualified event name, ``layer.kind``."""
        return f"{self.layer}.{self.kind}"

    def to_json_dict(self) -> dict[str, Any]:
        """The JSONL wire form (stable key order)."""
        return {
            "seq": self.seq,
            "t": self.time,
            "layer": self.layer,
            "kind": self.kind,
            "data": self.data,
        }

    @classmethod
    def from_json_dict(cls, raw: dict[str, Any]) -> "TraceEvent":
        """Inverse of :meth:`to_json_dict`."""
        return cls(
            seq=int(raw["seq"]),
            time=float(raw["t"]),
            layer=str(raw["layer"]),
            kind=str(raw["kind"]),
            data=dict(raw.get("data", {})),
        )


#: The C constructor under ``TraceEvent(...)``: the generated ``__new__``
#: is a Python-level wrapper around it, and ``emit`` runs per datagram.
_record = tuple.__new__


class Tracer:
    """Process-global append-only event buffer.

    The ``enabled`` flag is public and checked directly by every
    instrumentation point; :meth:`emit` is only ever reached when it is
    true, so the disabled path never constructs an event.
    """

    __slots__ = ("enabled", "_events")

    def __init__(self) -> None:
        self.enabled: bool = False
        self._events: list[TraceEvent] = []

    # -- control --------------------------------------------------------

    def enable(self, reset: bool = True) -> None:
        """Start recording (dropping any previous buffer by default)."""
        if reset:
            self._events.clear()
        self.enabled = True

    def disable(self) -> None:
        """Stop recording; the buffer is kept until :meth:`clear`."""
        self.enabled = False

    def clear(self) -> None:
        """Drop every buffered event (sequence numbers restart at 0)."""
        self._events.clear()

    # -- recording ------------------------------------------------------

    def emit(self, time: float, layer: str, kind: str, /, **data: Any) -> None:
        """Append one event (callers guard with ``if TRACER.enabled``).

        The header arguments are positional-only so ``data`` keys may
        freely reuse the names (``kind=`` is a common payload field).
        """
        self._events.append(
            _record(TraceEvent, (len(self._events), time, layer, kind, data))
        )

    def absorb(self, events: Iterable[TraceEvent]) -> None:
        """Fold events recorded elsewhere (a worker process) into this
        buffer, re-sequencing them after the current tail."""
        for event in events:
            self._events.append(
                TraceEvent(len(self._events), event.time, event.layer, event.kind, event.data)
            )

    # -- inspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(tuple(self._events))

    def events(self) -> tuple[TraceEvent, ...]:
        """An immutable view of the whole buffer."""
        return tuple(self._events)

    def mark(self) -> int:
        """A resumable position: pass to :meth:`events_since`."""
        return len(self._events)

    def events_since(self, mark: int) -> tuple[TraceEvent, ...]:
        """Events appended after ``mark`` was taken."""
        return tuple(self._events[mark:])

    @contextmanager
    def capture(self) -> Iterator[int]:
        """Record for the length of a block, then leave the tracer as
        it was found — flag and buffer — even when the block raises.

        Yields the mark to read the block's events from
        (:meth:`events_since`) before it ends; back-to-back captures in
        one process neither accumulate events nor leave tracing on.
        """
        mark = len(self._events)
        was_enabled = self.enabled
        self.enabled = True
        try:
            yield mark
        finally:
            self.enabled = was_enabled
            del self._events[mark:]


#: The one tracer every instrumentation point checks.
TRACER = Tracer()


def resequence(events: Iterable[TraceEvent]) -> tuple[TraceEvent, ...]:
    """Renumber ``seq`` consecutively from zero, preserving order.

    Serial runs buffer globally while parallel workers buffer per
    process; renumbering the deterministic concatenation makes the two
    produce identical exports.
    """
    return tuple(
        TraceEvent(index, event.time, event.layer, event.kind, event.data)
        for index, event in enumerate(events)
    )
