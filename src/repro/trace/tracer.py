"""The process-global structured event tracer.

One :class:`Tracer` instance (:data:`TRACER`) lives per process.
Instrumentation points across the simulator, network, protocol and
multicast layers are all written the same way: the site checks its
own layer's slot, then its key in that slot::

    from repro.trace.tracer import TRACER

    if TRACER.net and kind in TRACER.net:
        TRACER.emit(sim.now, "net", "drop", src=a, dst=b, kind=kind, reason="loss")

A site's key is its event kind (``"sleep"``, ``"stabilize"``,
``"deliver"`` …), except at the ``net`` datagram sites (send, deliver,
drop, timeout), which key on the datagram's *message* kind.

The cost model, per site:

* **Disabled** — every layer slot is ``False``: one attribute load and
  a truthiness check, so the tracer stays compiled into every hot path
  permanently, exactly like the :mod:`repro.perf` counters.
* **Filtered** (:meth:`Tracer.capture` with ``only=``) — a layer the
  filter leaves out is ``False`` as well; a layer it keeps part of
  holds a ``frozenset`` of the kept keys, so an excluded event costs
  one more attribute load and a set membership test, and builds
  nothing (no payload fields, no record).
* **Recording everything** — each slot is :data:`EVERY` (whose
  Python-level ``__contains__`` is the one call the guard adds), and
  every event appends one :class:`TraceEvent` to an in-memory buffer;
  nothing is formatted or written until an exporter runs.

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
from typing import Any, Collection, Iterable, Iterator, Mapping, NamedTuple


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

#: The instrumented layers, one guard slot each on :class:`Tracer`.
LAYERS = ("sim", "net", "proto", "mc")

#: A filter: layer -> the keys recorded there (``None``: every key).
#: Layers it does not name record nothing.
Filter = Mapping[str, "Collection[str] | None"]


class _Every:
    """The slot of a layer recording without a filter: holds every key."""

    __slots__ = ()

    def __contains__(self, key: object) -> bool:
        return True


EVERY = _Every()


class Tracer:
    """Process-global append-only event buffer.

    The layer slots ``sim`` / ``net`` / ``proto`` / ``mc`` are public
    and checked directly by every instrumentation point; :meth:`emit`
    is only ever reached when the site's key is in its layer's slot, so
    an unrecorded event never constructs anything.  The slots are set
    together, by :meth:`enable`, :meth:`disable` and :meth:`capture`.
    """

    __slots__ = ("sim", "net", "proto", "mc", "_enabled", "_only", "_events")

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []
        self._switch(False, None)

    def _switch(self, enabled: bool, only: Filter | None) -> None:
        """Set the flag, the filter and the layer slots they imply."""
        self._enabled = enabled
        self._only = only
        for layer in LAYERS:
            if not enabled or (only is not None and layer not in only):
                keys: Any = False
            elif only is None or only[layer] is None:
                keys = EVERY
            else:
                keys = frozenset(only[layer]) or False
            setattr(self, layer, keys)

    # -- control --------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True while anything is recorded (filtered or not)."""
        return self._enabled

    def enable(self, reset: bool = True) -> None:
        """Record everything (dropping any previous buffer by default)."""
        if reset:
            self._events.clear()
        self._switch(True, None)

    def disable(self) -> None:
        """Stop recording; the buffer is kept until :meth:`clear`."""
        self._switch(False, None)

    def clear(self) -> None:
        """Drop every buffered event (sequence numbers restart at 0)."""
        self._events.clear()

    # -- recording ------------------------------------------------------

    def emit(self, time: float, layer: str, kind: str, /, **data: Any) -> None:
        """Append one event (callers guard with their layer's slot).

        The header arguments are positional-only so ``data`` keys may
        freely reuse the names (``kind=`` is a common payload field).
        """
        self._events.append(
            _record(TraceEvent, (len(self._events), time, layer, kind, data))
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
    def capture(self, only: Filter | None = None) -> Iterator[int]:
        """Record for the length of a block, then leave the tracer as
        it was found — flag, filter and buffer — even when the block
        raises.

        ``only`` records just the keys it names per layer (see
        :data:`Filter`); ``None`` records everything.  Yields the mark
        to read the block's events from (:meth:`events_since`) before
        it ends; back-to-back captures in one process neither
        accumulate events nor leave tracing on.
        """
        mark = len(self._events)
        outer = (self._enabled, self._only)
        self._switch(True, only)
        try:
            yield mark
        finally:
            self._switch(*outer)
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
