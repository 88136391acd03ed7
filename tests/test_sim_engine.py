"""Tests for the discrete-event simulator."""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Future, FutureError, Simulator


class TestScheduling:
    def test_time_advances_to_event(self):
        sim = Simulator()
        fired = []
        sim.call_later(5.0, lambda: fired.append(sim.now))
        sim.run(until=10.0)
        assert fired == [5.0]
        assert sim.now == 10.0

    def test_ordering_by_time_then_fifo(self):
        sim = Simulator()
        order = []
        sim.call_later(2.0, lambda: order.append("b"))
        sim.call_later(1.0, lambda: order.append("a"))
        sim.call_later(2.0, lambda: order.append("c"))  # same time as b
        sim.run(until=5.0)
        assert order == ["a", "b", "c"]

    def test_run_does_not_execute_future_events(self):
        sim = Simulator()
        fired = []
        sim.call_later(5.0, lambda: fired.append(1))
        sim.run(until=4.9)
        assert fired == []
        sim.run(until=5.0)
        assert fired == [1]

    def test_cancel(self):
        sim = Simulator()
        fired = []
        event = sim.call_later(1.0, lambda: fired.append(1))
        assert not sim.cancelled(event)
        sim.cancel(event)
        assert sim.cancelled(event)
        sim.run(until=2.0)
        assert fired == []

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().call_later(-1, lambda: None)

    def test_call_at_past_rejected(self):
        sim = Simulator()
        sim.call_later(1.0, lambda: None)
        sim.run(until=5.0)
        with pytest.raises(ValueError):
            sim.call_at(4.0, lambda: None)

    @pytest.mark.parametrize("entry", ["call_at", "call_later"])
    def test_nan_time_rejected(self, entry):
        """``nan < now`` is False: a NaN once slipped past both guards
        and unordered the heap for every event after it."""
        sim = Simulator()
        with pytest.raises(ValueError):
            getattr(sim, entry)(float("nan"), lambda: None)
        sim.run_until_idle()
        assert sim.events_processed == 0

    def test_arguments_ride_with_the_callback(self):
        sim = Simulator()
        fired = []
        sim.call_later(1.0, fired.append, "later")
        sim.call_at(0.5, lambda *args: fired.append(args), 1, 2)
        sim.run_until_idle()
        assert fired == [(1, 2), "later"]

    def test_call_at_fires_at_exactly_when(self):
        """``now + (when - now)`` lands an ulp past ``when`` for this
        pair; the event must carry ``when`` itself."""
        sim = Simulator()
        sim.run(until=0.03)
        when = 0.3
        assert sim.now + (when - sim.now) == 0.30000000000000004
        fired = []
        sim.call_at(when, lambda: fired.append(sim.now))
        sim.run_until_idle()
        assert fired == [when]

    def test_run_until_idle(self):
        sim = Simulator()
        fired = []

        def chain(n: int) -> None:
            fired.append(n)
            if n < 5:
                sim.call_later(1.0, lambda: chain(n + 1))

        sim.call_later(0.0, lambda: chain(0))
        sim.run_until_idle()
        assert fired == [0, 1, 2, 3, 4, 5]
        assert sim.events_processed == 6

    def test_run_until_idle_budget(self):
        sim = Simulator()

        def forever() -> None:
            sim.call_later(1.0, forever)

        sim.call_later(0.0, forever)
        with pytest.raises(RuntimeError, match="did not go idle"):
            sim.run_until_idle(max_events=100)


    def test_run_until_idle_budget_charges_executed_callbacks_only(self):
        """Cancelled entries once spent budget without counting as
        processed, so a drain that cancels (the plane's wavefront
        re-arm does) could fail with budget to spare."""
        sim = Simulator()
        fired = []
        for index in range(6):
            dead = sim.call_later(1.0 + index, fired.append, "dead")
            sim.call_later(1.0 + index, fired.append, index)
            sim.cancel(dead)
        sim.cancel(sim.call_later(9.0, fired.append, "dead"))
        sim.run_until_idle(max_events=6)
        assert fired == list(range(6))
        assert sim.events_processed == 6
        sim.call_later(1.0, fired.append, 6)
        with pytest.raises(RuntimeError, match="did not go idle"):
            sim.run_until_idle(max_events=0)
        assert fired == list(range(6))  # the refused event was not lost
        sim.run_until_idle(max_events=1)
        assert fired == list(range(7))


def _instruction_with(nested):
    """One scheduling instruction: (entry point, time or delay, id of an
    earlier instruction to cancel or None, nested instructions issued
    from inside the callback)."""
    return st.tuples(
        st.sampled_from(["call_at", "call_later"]),
        st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 3.0]),
        st.none() | st.integers(min_value=0, max_value=30),
        nested,
    )


#: max_leaves bounds each drawn tree, or Hypothesis spends most of the
#: test drawing and discarding deep ones; 16 leaves per top-level
#: instruction still reach programs of 50-90 instructions
_instruction = st.recursive(
    _instruction_with(st.just([])),
    lambda children: _instruction_with(st.lists(children, max_size=3)),
    max_leaves=16,
)


class TestOrderContract:
    """Live events fire in ``(time, insertion)`` order — whatever the
    heap holds them in."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_instruction, min_size=1, max_size=12))
    def test_random_programs_fire_in_time_then_insertion_order(self, program):
        sim = Simulator()
        handles = []  # by insertion index
        keys = []  # (time, insertion index) per insertion
        fired = []  # insertion indices, in firing order
        was_live = {}  # insertion index -> cancelled? just before cancel()

        def issue(instructions):
            for entry, amount, victim, nested in instructions:
                if victim is not None and victim < len(handles):
                    was_live.setdefault(victim, victim not in fired)
                    sim.cancel(handles[victim])
                    assert sim.cancelled(handles[victim])
                index = len(handles)
                when = sim.now + amount
                if entry == "call_at":
                    handle = sim.call_at(when, run, index, nested)
                else:
                    handle = sim.call_later(amount, run, index, nested)
                assert not sim.cancelled(handle)
                handles.append(handle)
                keys.append((when, index))

        def run(index, nested):
            assert sim.now == keys[index][0]
            assert not sim.cancelled(handles[index])  # before and while firing
            fired.append(index)
            issue(nested)

        issue(program)
        sim.run_until_idle()
        cancelled_live = {index for index, live in was_live.items() if live}
        expected = sorted(
            key for key in keys if key[1] not in cancelled_live
        )
        assert fired == [index for _, index in expected]
        assert sim.events_processed == len(fired)
        for index, handle in enumerate(handles):
            # after firing a handle reads not-cancelled; cancel() sets
            # it whenever it is called, even after the event fired
            assert sim.cancelled(handle) == (index in was_live)


class TestFuture:
    def test_resolve_and_value(self):
        future = Future()
        assert not future.done
        with pytest.raises(RuntimeError):
            _ = future.value
        future.resolve(42)
        assert future.done
        assert future.value == 42

    def test_fail(self):
        future = Future()
        future.fail("boom")
        assert future.done and future.failed
        with pytest.raises(FutureError, match="boom"):
            _ = future.value

    def test_double_settle_rejected(self):
        future = Future()
        future.resolve(1)
        with pytest.raises(RuntimeError):
            future.resolve(2)

    def test_callback_after_settle_fires_immediately(self):
        future = Future()
        future.resolve("x")
        seen = []
        future.add_callback(lambda f: seen.append(f.value))
        assert seen == ["x"]

    @pytest.mark.parametrize("settle", ["resolve", "fail"])
    def test_settled_future_holds_no_callback_list(self, settle):
        """A plane run keeps every send's completion future alive, so a
        settled one must not keep an empty list beside its value."""
        future = Future()
        seen = []
        future.add_callback(lambda f: seen.append("early"))
        getattr(future, settle)("x")
        assert not any(isinstance(ref, list) for ref in gc.get_referents(future))
        future.add_callback(lambda f: seen.append("late"))
        assert seen == ["early", "late"]


class TestProcesses:
    def test_sleep_yields(self):
        sim = Simulator()
        log = []

        def proc():
            log.append(("start", sim.now))
            yield 3.0
            log.append(("mid", sim.now))
            yield 2.0
            log.append(("end", sim.now))

        sim.spawn(proc())
        sim.run_until_idle()
        assert log == [("start", 0.0), ("mid", 3.0), ("end", 5.0)]

    def test_wait_on_future(self):
        sim = Simulator()
        future = Future()
        got = []

        def waiter():
            value = yield future
            got.append((value, sim.now))

        sim.spawn(waiter())
        sim.call_later(7.0, lambda: future.resolve("ready"))
        sim.run_until_idle()
        assert got == [("ready", 7.0)]

    def test_failed_future_raises_in_process(self):
        sim = Simulator()
        future = Future()
        caught = []

        def waiter():
            try:
                yield future
            except FutureError as exc:
                caught.append(str(exc))

        sim.spawn(waiter())
        sim.call_later(1.0, lambda: future.fail("nope"))
        sim.run_until_idle()
        assert caught == ["nope"]

    def test_unhandled_failure_fails_completion(self):
        sim = Simulator()
        future = Future()

        def waiter():
            yield future

        handle = sim.spawn(waiter())
        sim.call_later(1.0, lambda: future.fail("dead"))
        sim.run_until_idle()
        assert handle.completion.failed

    def test_completion_value(self):
        sim = Simulator()

        def proc():
            yield 1.0
            return "done"

        handle = sim.spawn(proc())
        sim.run_until_idle()
        assert handle.completion.value == "done"
        assert not handle.alive

    def test_kill(self):
        sim = Simulator()
        ticks = []

        def proc():
            while True:
                ticks.append(sim.now)
                yield 1.0

        handle = sim.spawn(proc())
        sim.run(until=3.5)
        handle.kill()
        sim.run(until=10.0)
        assert ticks == [0.0, 1.0, 2.0, 3.0]
        assert not handle.alive

    def test_bad_yield_type(self):
        sim = Simulator()

        def proc():
            yield "not a delay"

        sim.spawn(proc())
        with pytest.raises(TypeError, match="yield a delay"):
            sim.run_until_idle()

    @pytest.mark.parametrize("delay", [-1.0, float("nan")])
    def test_bad_sleep_rejected(self, delay):
        """A sleep goes through the same guard as ``call_later``: a NaN
        would unorder the heap, a negative delay schedule in the past."""
        sim = Simulator()

        def proc():
            yield delay

        sim.spawn(proc())
        with pytest.raises(ValueError, match="delay must be >= 0"):
            sim.run_until_idle()
        assert sim.now == 0.0

    def test_bool_is_not_a_delay(self):
        """``True`` is an ``int`` to ``isinstance``; yielding it once
        slept a second instead of failing like any other non-delay."""
        sim = Simulator()

        def proc():
            yield True

        sim.spawn(proc())
        with pytest.raises(TypeError, match="process yielded bool"):
            sim.run_until_idle()

    def test_settled_future_resumes_within_the_same_event(self):
        sim = Simulator()
        ready, broken = Future(), Future()
        ready.resolve("value")
        broken.fail("gone")
        log = []

        def proc():
            yield 1.0
            before = sim.events_processed
            log.append((yield ready))
            try:
                yield broken
            except FutureError as exc:
                log.append(str(exc))
            log.append((sim.now, sim.events_processed - before))

        handle = sim.spawn(proc())
        sim.run_until_idle()
        assert log == ["value", "gone", (1.0, 0)]
        assert sim.events_processed == 2  # the spawn and the one sleep
        assert handle.completion.done and not handle.alive

    def test_determinism(self):
        def run_once() -> list[tuple[str, float]]:
            sim = Simulator()
            log = []

            def proc(name: str, period: float):
                while sim.now < 10:
                    log.append((name, sim.now))
                    yield period

            sim.spawn(proc("a", 1.5))
            sim.spawn(proc("b", 2.0))
            sim.run(until=10.0)
            return log

        assert run_once() == run_once()
