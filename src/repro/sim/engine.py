"""Event-queue simulator with generator-based processes.

A :class:`Simulator` owns a priority queue of timestamped events.
Protocol code is written as generator *processes*::

    def stabilizer(sim: Simulator):
        while True:
            yield 30.0                 # sleep 30 simulated seconds
            reply = yield rpc_future   # wait for a Future
            ...

    sim.spawn(stabilizer(sim))

Yielding a number (``>= 0``, not a ``bool``) sleeps; yielding a
:class:`Future` suspends the process until the future resolves (its
value is sent back into the generator, and a failed future raises
inside it; one already settled resumes the process at once).

**The event record.**  One flat record is all that moves through the
core: a scheduled callback is the list ``[time, sequence, action,
args]`` and firing it is ``action(*args)``.  Callers hand their
arguments to :meth:`Simulator.call_at` / :meth:`Simulator.call_later`
(``call_later(delay, peer.join, bootstrap)``) rather than wrapping them
in a ``lambda``, which costs an allocation and a second frame for
every datagram, sleep and timer.  The record is also its own handle:
both return it, and :meth:`Simulator.cancel` /
:meth:`Simulator.cancelled` are the only code that reads its layout
from outside the loop.  A process is resumed by one callable built
when it is spawned (``partial(sim._step, handle)``); every sleep
schedules it and every wait registers it, so a wake-up allocates
nothing but its record.

**Order.**  Events fire in ``(time, sequence)`` order and ``sequence``
counts insertions, so ties break by insertion order and a seeded
simulation replays identically.  Lists compare element-wise in C and
``sequence`` is unique, so the heap never compares ``action``; the
generated ``__lt__`` of an ordered dataclass did the same comparison in
Python, seven million times per campaign.  It is a list rather than a
tuple because cancelling is an assignment: ``action`` becomes ``None``
and the entry is discarded when it surfaces.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Any, Callable, Generator

from repro.trace.tracer import TRACER

#: The process type protocol code implements.
Process = Generator[Any, Any, None]


class FutureError(Exception):
    """Raised inside a process that waits on a failed future."""


class Future:
    """A one-shot value that a process can wait on.

    Resolve with :meth:`resolve` or fail with :meth:`fail`; both are
    idempotent errors if called twice.  Callbacks fire synchronously at
    resolution time (within the event that resolved the future).
    """

    __slots__ = ("_state", "_value", "_callbacks")

    _PENDING, _DONE, _FAILED = 0, 1, 2

    def __init__(self) -> None:
        self._state = Future._PENDING
        self._value: Any = None
        self._callbacks: list[Callable[[Future], None]] = []

    @property
    def done(self) -> bool:
        """True once resolved or failed."""
        return self._state != Future._PENDING

    @property
    def failed(self) -> bool:
        """True when the future failed."""
        return self._state == Future._FAILED

    @property
    def value(self) -> Any:
        """The resolved value (raises if pending or failed)."""
        if self._state == Future._DONE:
            return self._value
        if self._state == Future._FAILED:
            raise FutureError(str(self._value))
        raise RuntimeError("future is still pending")

    def resolve(self, value: Any = None) -> None:
        """Deliver the value and wake every waiter."""
        self._settle(Future._DONE, value)

    def fail(self, reason: str) -> None:
        """Fail the future; waiters see :class:`FutureError`."""
        self._settle(Future._FAILED, reason)

    def _settle(self, state: int, value: Any) -> None:
        if self._state != Future._PENDING:
            raise RuntimeError("future already settled")
        self._state = state
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def add_callback(self, callback: Callable[["Future"], None]) -> None:
        """Run ``callback(self)`` at settlement (immediately if settled)."""
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)


class ProcessHandle:
    """Handle to a spawned process: observe completion, or kill it."""

    __slots__ = ("_generator", "_alive", "_resume", "completion", "pid", "name")

    def __init__(self, generator: Process, pid: int = 0) -> None:
        self._generator = generator
        self._alive = True
        #: ``partial(sim._step, self)``, set by :meth:`Simulator.spawn`:
        #: the one callable every sleep schedules and every wait registers.
        self._resume: Callable[..., None] | None = None
        #: Process identity for trace events (assigned by the simulator).
        self.pid = pid
        self.name = getattr(generator, "__name__", type(generator).__name__)
        #: Resolves when the process returns; fails if it raises.
        self.completion = Future()

    @property
    def alive(self) -> bool:
        """True while the process can still run."""
        return self._alive

    def kill(self) -> None:
        """Stop the process; it never resumes (completion resolves None)."""
        if self._alive:
            self._alive = False
            self._generator.close()
            if not self.completion.done:
                self.completion.resolve(None)


class Simulator:
    """Deterministic discrete-event loop."""

    def __init__(self) -> None:
        self._queue: list[list] = []
        self._sequence = 0
        self._now = 0.0
        self._processed = 0
        self._next_pid = 1
        self._run_bound = float("inf")

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events executed so far (diagnostics)."""
        return self._processed

    @property
    def run_bound(self) -> float:
        """The time limit of the active :meth:`run` call (``inf`` when
        draining or idle).  Batch schedulers — the service plane's
        wavefront commits — cap their look-ahead here so a bounded
        ``run(until)`` observes exactly the state an event-per-delivery
        execution would have produced at ``until``."""
        return self._run_bound

    def next_event_time(self) -> float | None:
        """The timestamp of the earliest live event (None when idle).

        Cancelled events are lazily discarded from the head of the
        queue, so the peek is amortized O(1) and keeps the heap from
        accumulating dead entries.
        """
        queue = self._queue
        while queue and queue[0][2] is None:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def call_later(
        self, delay: float, action: Callable[..., None], *args: Any
    ) -> list:
        """Schedule ``action(*args)`` at ``now + delay``; the returned
        event is what :meth:`cancel` takes."""
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        # pushes for itself: nearly every event arrives through here, and
        # handing ``*args`` on to call_at would pack them a second time
        event = [self._now + delay, self._sequence, action, args]
        self._sequence += 1
        heapq.heappush(self._queue, event)
        return event

    def call_at(
        self, when: float, action: Callable[..., None], *args: Any,
        slot: int | None = None,
    ) -> list:
        """Schedule ``action(*args)`` at exactly the absolute time
        ``when`` (>= now; a NaN is rejected, it would unorder the heap).
        With a ``slot`` from :meth:`reserve_slot` the event ties as if
        it had been scheduled when the slot was taken."""
        if not when >= self._now:
            raise ValueError(f"cannot schedule in the past: {when} < {self._now}")
        event = [when, self.reserve_slot() if slot is None else slot, action, args]
        heapq.heappush(self._queue, event)
        return event

    @staticmethod
    def cancel(event: list) -> None:
        """Keep a scheduled event from running (no-op once it ran)."""
        event[2] = None

    @staticmethod
    def cancelled(event: list) -> bool:
        """True once :meth:`cancel` was called on ``event``."""
        return event[2] is None

    def reserve_slot(self) -> int:
        """Take the next insertion position without scheduling anything:
        how one armed event stands in for a FIFO of deadlines and still
        fires each where its own event would have (the network's RPC
        timers)."""
        slot = self._sequence
        self._sequence += 1
        return slot

    # -- processes ------------------------------------------------------

    def spawn(self, process: Process, delay: float = 0.0) -> ProcessHandle:
        """Start a generator process after ``delay``."""
        handle = ProcessHandle(process, pid=self._next_pid)
        self._next_pid += 1
        if TRACER.sim and "spawn" in TRACER.sim:
            TRACER.emit(
                self._now, "sim", "spawn", pid=handle.pid, name=handle.name, delay=delay
            )
        handle._resume = resume = partial(self._step, handle)
        self.call_later(delay, resume)
        return handle

    def _step(self, handle: ProcessHandle, settled: Future | None = None) -> None:
        """Resume ``handle`` after a sleep (``settled`` is None) or with
        the outcome of the future it waited on, and run it to its next
        sleep or wait.  A future that is already settled when yielded
        resumes the process at once, within this event."""
        if not handle._alive:
            return
        generator = handle._generator
        while True:
            try:
                if settled is None:
                    yielded = generator.send(None)
                elif settled._state == Future._FAILED:
                    yielded = generator.throw(FutureError(str(settled._value)))
                else:
                    yielded = generator.send(settled._value)
            except StopIteration as stop:
                handle._alive = False
                if TRACER.sim and "exit" in TRACER.sim:
                    TRACER.emit(self._now, "sim", "exit", pid=handle.pid, outcome="return")
                handle.completion.resolve(stop.value)
                return
            except FutureError as exc:
                # an unhandled RPC failure terminates the process
                handle._alive = False
                if TRACER.sim and "exit" in TRACER.sim:
                    TRACER.emit(self._now, "sim", "exit", pid=handle.pid, outcome="error")
                handle.completion.fail(str(exc))
                return
            if isinstance(yielded, Future):
                if TRACER.sim and "wait" in TRACER.sim:
                    TRACER.emit(self._now, "sim", "wait", pid=handle.pid)
                if yielded._state == Future._PENDING:
                    # add_callback minus its settled test, made just above
                    yielded._callbacks.append(handle._resume)
                    return
                settled = yielded
            elif isinstance(yielded, (int, float)) and yielded.__class__ is not bool:
                delay = float(yielded)
                if TRACER.sim and "sleep" in TRACER.sim:
                    TRACER.emit(self._now, "sim", "sleep", pid=handle.pid, delay=delay)
                self.call_later(delay, handle._resume)
                return
            else:
                raise TypeError(
                    f"process yielded {type(yielded).__name__}; "
                    "yield a delay (number) or a Future"
                )

    # -- execution ------------------------------------------------------

    def run(self, until: float) -> None:
        """Execute events up to and including time ``until``."""
        previous = self._run_bound
        self._run_bound = until
        queue = self._queue
        try:
            while queue and queue[0][0] <= until:
                time, _, action, args = heapq.heappop(queue)
                if action is not None:
                    self._now = time
                    self._processed += 1
                    action(*args)
            self._now = max(self._now, until)
        finally:
            self._run_bound = previous

    def run_until_idle(self, max_events: int | None = None) -> None:
        """Execute events until the queue drains; more than
        ``max_events`` callbacks (cancelled entries are free) is an
        error."""
        limit = None if max_events is None else self._processed + max_events
        queue = self._queue
        while queue:
            if queue[0][2] is None:
                heapq.heappop(queue)
            elif self._processed == limit:
                raise RuntimeError(
                    f"simulation did not go idle within {max_events} events"
                )
            else:
                time, _, action, args = heapq.heappop(queue)
                self._now = time
                self._processed += 1
                action(*args)
