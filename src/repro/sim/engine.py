"""Event-queue simulator with generator-based processes.

A :class:`Simulator` owns a priority queue of timestamped events.
Protocol code is written as generator *processes*::

    def stabilizer(sim: Simulator):
        while True:
            yield 30.0                 # sleep 30 simulated seconds
            reply = yield rpc_future   # wait for a Future
            ...

    sim.spawn(stabilizer(sim))

Yielding a number sleeps; yielding a :class:`Future` suspends the
process until the future resolves (its value is sent back into the
generator, and a failed future raises inside it).  Event ordering is
deterministic: ties break by insertion order, so a seeded simulation
replays identically.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Sequence

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


def gather(futures: "Sequence[Future]") -> Future:
    """A future that resolves with every input's value, in input order.

    Resolves to a list once all inputs resolve; fails as soon as any
    input fails (first failure wins, later settlements are ignored).
    An empty sequence resolves immediately — so a caller can always
    ``yield gather(batch)`` without special-casing idle batches.
    """
    combined = Future()
    inputs = list(futures)
    remaining = len(inputs)
    if remaining == 0:
        combined.resolve([])
        return combined

    def on_settle(settled: Future) -> None:
        nonlocal remaining
        if combined.done:
            return
        if settled.failed:
            combined.fail(str(settled._value))
            return
        remaining -= 1
        if remaining == 0:
            combined.resolve([future._value for future in inputs])

    for future in inputs:
        future.add_callback(on_settle)
    return combined


@dataclass(order=True)
class _Event:
    time: float
    sequence: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class EventHandle:
    """Cancellation handle for a scheduled callback."""

    __slots__ = ("_event",)

    def __init__(self, event: _Event) -> None:
        self._event = event

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if it already did)."""
        self._event.cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled


class ProcessHandle:
    """Handle to a spawned process: observe completion, or kill it."""

    __slots__ = ("_generator", "_alive", "completion", "pid", "name")

    def __init__(self, generator: Process, pid: int = 0) -> None:
        self._generator = generator
        self._alive = True
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
        self._queue: list[_Event] = []
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
        while queue and queue[0].cancelled:
            heapq.heappop(queue)
        return queue[0].time if queue else None

    def call_later(self, delay: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action()`` at ``now + delay``."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.call_at(self._now + delay, action)

    def call_at(self, when: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action()`` at exactly the absolute time ``when``
        (>= now)."""
        if when < self._now:
            raise ValueError(f"cannot schedule in the past: {when} < {self._now}")
        event = _Event(when, self._sequence, action)
        self._sequence += 1
        heapq.heappush(self._queue, event)
        return EventHandle(event)

    # -- processes ------------------------------------------------------

    def spawn(self, process: Process, delay: float = 0.0) -> ProcessHandle:
        """Start a generator process after ``delay``."""
        handle = ProcessHandle(process, pid=self._next_pid)
        self._next_pid += 1
        if TRACER.enabled:
            TRACER.emit(
                self._now, "sim", "spawn", pid=handle.pid, name=handle.name, delay=delay
            )
        self.call_later(delay, lambda: self._step(handle, None, None))
        return handle

    def _step(self, handle: ProcessHandle, value: Any, error: str | None) -> None:
        if not handle.alive:
            return
        try:
            if error is not None:
                yielded = handle._generator.throw(FutureError(error))
            else:
                yielded = handle._generator.send(value)
        except StopIteration as stop:
            handle._alive = False
            if TRACER.enabled:
                TRACER.emit(self._now, "sim", "exit", pid=handle.pid, outcome="return")
            handle.completion.resolve(stop.value)
            return
        except FutureError as exc:
            # an unhandled RPC failure terminates the process
            handle._alive = False
            if TRACER.enabled:
                TRACER.emit(self._now, "sim", "exit", pid=handle.pid, outcome="error")
            handle.completion.fail(str(exc))
            return
        self._wait(handle, yielded)

    def _wait(self, handle: ProcessHandle, yielded: Any) -> None:
        if isinstance(yielded, (int, float)):
            if TRACER.enabled:
                TRACER.emit(
                    self._now, "sim", "sleep", pid=handle.pid, delay=float(yielded)
                )
            self.call_later(float(yielded), lambda: self._step(handle, None, None))
        elif isinstance(yielded, Future):
            if TRACER.enabled:
                TRACER.emit(self._now, "sim", "wait", pid=handle.pid)
            def on_settle(future: Future) -> None:
                if future.failed:
                    self._step(handle, None, str(future._value))
                else:
                    self._step(handle, future._value, None)

            yielded.add_callback(on_settle)
        else:
            raise TypeError(
                f"process yielded {type(yielded).__name__}; "
                "yield a delay (number) or a Future"
            )

    def every(
        self, interval: float, action: Callable[[], None], jitter_first: float = 0.0
    ) -> ProcessHandle:
        """Run ``action()`` every ``interval`` until the handle is killed."""
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")

        def ticker() -> Process:
            yield jitter_first
            while True:
                action()
                yield interval

        return self.spawn(ticker())

    # -- execution ------------------------------------------------------

    def run(self, until: float) -> None:
        """Execute events up to and including time ``until``."""
        previous = self._run_bound
        self._run_bound = until
        try:
            while self._queue and self._queue[0].time <= until:
                self._pop_and_run()
            self._now = max(self._now, until)
        finally:
            self._run_bound = previous

    def run_until_idle(self, max_events: int | None = None) -> None:
        """Execute events until the queue drains (or the budget is hit)."""
        budget = max_events
        while self._queue:
            if budget is not None:
                if budget == 0:
                    raise RuntimeError(
                        f"simulation did not go idle within {max_events} events"
                    )
                budget -= 1
            self._pop_and_run()

    def _pop_and_run(self) -> None:
        event = heapq.heappop(self._queue)
        if event.cancelled:
            return
        self._now = event.time
        self._processed += 1
        event.action()
