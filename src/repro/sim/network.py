"""Message-passing network over the event simulator.

Endpoints register under their overlay identifier; ``send`` delivers a
:class:`Message` after the latency model's one-way delay, or silently
drops it when the destination has crashed / departed (exactly how a UDP
datagram to a dead host behaves), when the loss model fires, or when
the pair is partitioned.  A lightweight request/response facility with
timeouts is layered on top — the building block for the Chord-style
maintenance RPCs in :mod:`repro.protocol`.

**RPC timers.**  Nearly every request is answered, so nearly every
timeout would be an engine event that fires to do nothing.  Deadlines
of one timeout value are FIFO (``now`` never decreases), so each value
keeps a deque of ``(deadline, slot, request…)`` and *one* armed engine
event stands in for it, as the service plane's wavefront does for
deliveries: when it fires it expires the head, skips the requests
answered meanwhile and re-arms at the first one still waiting.  The
``slot`` is the insertion position ``request`` reserved from the
engine, so a timeout that does fire ties with other events exactly as
a per-request timer scheduled inside ``request`` would.

**One record, one dispatch.**  A datagram in flight is its engine
event and nothing else: ``_transmit`` — the one path ``send``,
``request`` and ``respond`` share — schedules ``(sender, recipient,
kind, payload, request_id)`` as the event's arguments.  An endpoint
datagram lands in ``_deliver``, which builds the :class:`Message` only
for a host that is still there; a reply lands in ``_answer``, which
hands its payload to the waiting future and never becomes a
``Message`` (no endpoint ever sees one).  A reply whose request
already timed out is dropped as ``late``, so at idle ``sent`` equals
``delivered`` plus every drop counter.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from random import Random
from typing import Any, NamedTuple, Protocol

from repro.sim.engine import Future, Simulator
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.trace.tracer import TRACER


class Message(NamedTuple):
    """One datagram on the simulated network."""

    sender: int
    recipient: int
    kind: str
    payload: Any = None
    request_id: int | None = None


#: The C constructor under a :class:`Message`: the generated ``__new__``
#: is a Python-level wrapper around it, and a message is built per
#: delivered datagram.
_record = tuple.__new__


class Endpoint(Protocol):
    """What the network expects of a registered host."""

    def handle_message(self, message: Message) -> None:
        """Process one delivered datagram."""


@dataclass
class NetworkStats:
    """Counters for everything the network did.

    Besides the global totals, drops and timeouts are broken down by
    message *kind* — ``drops_by_kind[kind][reason]`` and
    ``timeouts_by_kind[kind]`` — so an experiment footer can say which
    traffic class (maintenance RPCs vs multicast data) the network
    actually ate.  ``delivered_by_kind`` (counted inline on the delivery
    path) gives the fault-injection oracles an exact accounting identity:
    every delivered ``mc_flood`` datagram is either a first delivery or
    a suppressed duplicate.
    """

    sent: int = 0
    delivered: int = 0
    dropped_dead: int = 0
    dropped_loss: int = 0
    dropped_partition: int = 0
    dropped_late: int = 0
    timeouts: int = 0
    drops_by_kind: dict[str, dict[str, int]] = field(default_factory=dict)
    timeouts_by_kind: dict[str, int] = field(default_factory=dict)
    delivered_by_kind: dict[str, int] = field(default_factory=dict)

    def count_drop(self, kind: str, reason: str) -> None:
        """Record one dropped datagram of ``kind`` for ``reason``
        (``dead`` / ``loss`` / ``partition`` / ``late``), in total and
        per kind."""
        total = f"dropped_{reason}"
        setattr(self, total, getattr(self, total) + 1)
        per_kind = self.drops_by_kind.setdefault(kind, {})
        per_kind[reason] = per_kind.get(reason, 0) + 1

    def count_timeout(self, kind: str) -> None:
        """Record one expired request of ``kind``."""
        self.timeouts_by_kind[kind] = self.timeouts_by_kind.get(kind, 0) + 1

    def by_kind_summary(self) -> str:
        """One compact footer line of per-kind drops and timeouts."""
        parts = []
        for kind in sorted(self.drops_by_kind):
            reasons = self.drops_by_kind[kind]
            detail = " ".join(
                f"{reason}={reasons[reason]}" for reason in sorted(reasons)
            )
            parts.append(f"{kind}[{detail}]")
        drops = " ".join(parts) if parts else "none"
        timeouts = (
            " ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.timeouts_by_kind.items())
            )
            or "none"
        )
        return f"drops: {drops} | timeouts: {timeouts}"


class Network:
    """Unreliable datagram network with request/response support."""

    def __init__(
        self,
        simulator: Simulator,
        latency: LatencyModel | None = None,
        loss_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {loss_rate}")
        self._sim = simulator
        self._latency = latency if latency is not None else ConstantLatency()
        self._loss_rate = loss_rate
        self._rng = Random(seed)
        self._endpoints: dict[int, Endpoint] = {}
        self._pending: dict[int, Future] = {}
        # RPC deadlines, one FIFO per timeout value (see ``request``)
        self._timers: defaultdict[float, deque] = defaultdict(deque)
        self._next_request_id = 1
        self._partitioned: set[frozenset[int]] = set()
        self._kind_loss: dict[str, float] = {}
        self.stats = NetworkStats()

    @property
    def simulator(self) -> Simulator:
        """The event loop this network schedules on."""
        return self._sim

    # -- membership -----------------------------------------------------

    def register(self, address: int, endpoint: Endpoint) -> None:
        """Attach a host under ``address`` (rejects duplicates)."""
        if address in self._endpoints:
            raise ValueError(f"address {address} already registered")
        self._endpoints[address] = endpoint

    def unregister(self, address: int) -> None:
        """Detach a host: all in-flight traffic to it is dropped."""
        self._endpoints.pop(address, None)

    # -- fault injection --------------------------------------------------

    def partition(self, a: int, b: int) -> None:
        """Silently drop all traffic between two hosts (both ways)."""
        self._partitioned.add(frozenset((a, b)))
        if TRACER.net and "partition" in TRACER.net:
            TRACER.emit(self._sim.now, "net", "partition", a=a, b=b)

    def heal(self, a: int, b: int) -> None:
        """Undo :meth:`partition`."""
        self._partitioned.discard(frozenset((a, b)))
        if TRACER.net and "heal" in TRACER.net:
            TRACER.emit(self._sim.now, "net", "heal", a=a, b=b)

    def heal_all(self) -> None:
        """Undo every active partition (deterministic pair order)."""
        for pair in sorted(self._partitioned, key=sorted):
            a, b = sorted(pair)
            self.heal(a, b)

    def set_loss_rate(self, loss_rate: float) -> None:
        """Change the iid message-loss probability."""
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {loss_rate}")
        self._loss_rate = loss_rate

    def set_kind_loss(self, kind: str, loss_rate: float) -> None:
        """Lossy-by-kind: drop ``kind`` datagrams iid at ``loss_rate``.

        Layered on top of the global loss model — the fault-injection
        primitive behind timeout storms (starve the maintenance RPC
        kinds) and selective multicast loss.  A rate of ``0`` removes
        the kind's entry.
        """
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {loss_rate}")
        if loss_rate == 0.0:
            self._kind_loss.pop(kind, None)
        else:
            self._kind_loss[kind] = loss_rate

    def clear_kind_loss(self) -> None:
        """Remove every per-kind loss rate."""
        self._kind_loss.clear()

    # -- datagrams --------------------------------------------------------

    @staticmethod
    def _trace_fields(message_kind: str, payload: Any) -> dict[str, Any]:
        """Multicast routing fields worth lifting into trace events.

        Only called when the tracer records ``message_kind``: the causal
        reconstructor needs the message id (and, for region handoffs,
        the covered span) without parsing opaque payloads.
        """
        if not isinstance(payload, dict):
            return {}
        fields_out: dict[str, Any] = {}
        for key in ("mid", "limit", "depth"):
            value = payload.get(key)
            if value is not None:
                fields_out[key] = value
        return fields_out

    def send(self, sender: int, recipient: int, kind: str, payload: Any = None) -> None:
        """Fire-and-forget datagram."""
        self._transmit(sender, recipient, kind, payload, None, False)

    def _transmit(
        self,
        sender: int,
        recipient: int,
        kind: str,
        payload: Any,
        request_id: int | None,
        reply: bool,
    ) -> None:
        """The one way a datagram enters the network: a request, a
        fire-and-forget datagram or (``reply``) the answer to a
        request, which :meth:`_answer` hands to the waiting future."""
        self.stats.sent += 1
        if self._partitioned and frozenset((sender, recipient)) in self._partitioned:
            return self._drop(sender, recipient, kind, payload, "partition")
        # the RNG is drawn in a fixed order — kind loss, loss, latency —
        # and only by a model that is switched on
        if self._kind_loss:
            kind_rate = self._kind_loss.get(kind, 0.0)
            if kind_rate and self._rng.random() < kind_rate:
                return self._drop(sender, recipient, kind, payload, "loss")
        if self._loss_rate and self._rng.random() < self._loss_rate:
            return self._drop(sender, recipient, kind, payload, "loss")
        delay = self._latency.delay(sender, recipient, self._rng)
        if TRACER.net and kind in TRACER.net:
            extra = self._trace_fields(kind, payload)
            if reply:
                extra["reply"] = True
            TRACER.emit(
                self._sim.now, "net", "send",
                src=sender, dst=recipient, kind=kind, delay=delay, **extra,
            )
        self._sim.call_later(
            delay,
            self._answer if reply else self._deliver,
            sender, recipient, kind, payload, request_id,
        )

    def _drop(
        self, sender: int, recipient: int, kind: str, payload: Any, reason: str
    ) -> None:
        """Account one datagram the network ate, for ``reason``."""
        self.stats.count_drop(kind, reason)
        if TRACER.net and kind in TRACER.net:
            TRACER.emit(
                self._sim.now, "net", "drop",
                src=sender, dst=recipient, kind=kind, reason=reason,
                **self._trace_fields(kind, payload),
            )

    def _deliver(
        self,
        sender: int,
        recipient: int,
        kind: str,
        payload: Any,
        request_id: int | None,
    ) -> None:
        """A datagram for an endpoint arrives: the one place a
        :class:`Message` is built."""
        endpoint = self._endpoints.get(recipient)
        if endpoint is None:
            return self._drop(sender, recipient, kind, payload, "dead")
        stats = self.stats
        stats.delivered += 1
        by_kind = stats.delivered_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if TRACER.net and kind in TRACER.net:
            TRACER.emit(
                self._sim.now, "net", "deliver",
                src=sender, dst=recipient, kind=kind,
                **self._trace_fields(kind, payload),
            )
        endpoint.handle_message(
            _record(Message, (sender, recipient, kind, payload, request_id))
        )

    def _answer(
        self, sender: int, recipient: int, kind: str, payload: Any, request_id: int
    ) -> None:
        """A reply arrives: resolve the future still waiting on it, or
        count it ``late`` when its request already timed out."""
        future = self._pending.pop(request_id, None)
        if future is None or future.done:
            return self._drop(sender, recipient, kind, payload, "late")
        stats = self.stats
        stats.delivered += 1
        by_kind = stats.delivered_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if TRACER.net and kind in TRACER.net:
            TRACER.emit(
                self._sim.now, "net", "deliver",
                src=sender, dst=recipient, kind=kind, reply=True,
            )
        future.resolve(payload)

    # -- request / response ------------------------------------------------

    def request(
        self,
        sender: int,
        recipient: int,
        kind: str,
        payload: Any = None,
        timeout: float = 2.0,
    ) -> Future:
        """Send a request datagram; the future resolves with the reply
        payload or fails after ``timeout`` simulated seconds."""
        if not timeout >= 0:
            raise ValueError(f"timeout must be >= 0, got {timeout}")
        request_id = self._next_request_id
        self._next_request_id += 1
        future = Future()
        self._pending[request_id] = future
        sim = self._sim
        deadline = sim.now + timeout
        slot = sim.reserve_slot()
        timers = self._timers[timeout]
        timers.append((deadline, slot, request_id, sender, recipient, kind))
        if len(timers) == 1:
            sim.call_at(deadline, self._expire, timers, slot=slot)
        self._transmit(sender, recipient, kind, payload, request_id, False)
        return future

    def _expire(self, timers: deque) -> None:
        """The head timer of one FIFO is due: fail its request if still
        unanswered, and re-arm at the next request still waiting."""
        _, _, request_id, sender, recipient, kind = timers.popleft()
        # answered requests have left ``_pending``; their timers would
        # have been no-ops, so they never reach the engine
        while timers and timers[0][2] not in self._pending:
            timers.popleft()
        if timers:
            self._sim.call_at(timers[0][0], self._expire, timers, slot=timers[0][1])
        pending = self._pending.pop(request_id, None)
        if pending is not None and not pending.done:
            self.stats.timeouts += 1
            self.stats.count_timeout(kind)
            if TRACER.net and kind in TRACER.net:
                TRACER.emit(
                    self._sim.now, "net", "timeout",
                    src=sender, dst=recipient, kind=kind, rid=request_id,
                )
            pending.fail(f"request {kind} to {recipient} timed out")

    def respond(self, request: Message, payload: Any = None) -> None:
        """Reply to a request message (routes back to the waiter)."""
        sender, recipient, kind, _, request_id = request
        if request_id is None:
            raise ValueError("cannot respond to a fire-and-forget message")
        self._transmit(recipient, sender, kind, payload, request_id, True)
