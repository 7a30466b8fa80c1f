"""Unit tests for the discrete-event kernel."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment, Event, Interrupt, SimulationError, Timeout
from repro.sim.core import AllOf, AnyOf, FLOW_LEVEL_PRIORITY


class TestEnvironment:
    def test_time_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_run_until_time_advances_clock(self):
        env = Environment()
        env.run(until=3.5)
        assert env.now == 3.5

    def test_run_until_past_time_rejected(self):
        env = Environment(initial_time=10.0)
        with pytest.raises(SimulationError):
            env.run(until=5.0)

    def test_peek_empty_queue_is_inf(self):
        assert Environment().peek() == float("inf")

    def test_events_fire_in_timestamp_order(self):
        env = Environment()
        order = []

        def waiter(delay, tag):
            yield env.timeout(delay)
            order.append(tag)

        env.process(waiter(3, "c"))
        env.process(waiter(1, "a"))
        env.process(waiter(2, "b"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        env = Environment()
        order = []

        def waiter(tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in ("first", "second", "third"):
            env.process(waiter(tag))
        env.run()
        assert order == ["first", "second", "third"]


class TestDeferredCallCancel:
    """``call_later``/``call_at`` handles: cancel without heap surgery."""

    def test_cancelled_call_never_fires(self):
        env = Environment()
        fired = []
        handle = env.call_later(1.0, fired.append, "a")
        env.call_later(2.0, fired.append, "b")
        handle.cancel()
        env.run()
        assert fired == ["b"]
        assert handle.cancelled

    def test_cancel_is_idempotent_and_counted(self):
        env = Environment()
        handle = env.call_later(1.0, lambda: None)
        assert env.cancelled_events == 0
        handle.cancel()
        handle.cancel()
        assert env.cancelled_events == 1
        env.run()
        assert env.cancelled_events == 1

    def test_cancel_keeps_scheduled_events_fingerprint(self):
        """The queue entry stays: cancelling must not perturb the
        ``scheduled_events`` determinism fingerprint, and the empty
        event still pops at its timestamp (time advances)."""
        env = Environment()
        handle = env.call_later(5.0, lambda: None)
        before = env.scheduled_events
        handle.cancel()
        assert env.scheduled_events == before
        env.run()
        assert env.now == 5.0


class TestTimeout:
    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Timeout(env, -1.0)

    def test_timeout_value_delivered(self):
        env = Environment()

        def proc():
            value = yield env.timeout(1.0, value="payload")
            return value

        p = env.process(proc())
        assert env.run(until=p) == "payload"

    def test_zero_delay_timeout(self):
        env = Environment()

        def proc():
            yield env.timeout(0)
            return env.now

        p = env.process(proc())
        assert env.run(until=p) == 0.0


class TestEvent:
    def test_succeed_delivers_value(self):
        env = Environment()
        event = env.event()

        def waiter():
            value = yield event
            return value

        def trigger():
            yield env.timeout(1.0)
            event.succeed(42)

        p = env.process(waiter())
        env.process(trigger())
        assert env.run(until=p) == 42

    def test_double_trigger_rejected(self):
        env = Environment()
        event = env.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_fail_raises_in_waiter(self):
        env = Environment()
        event = env.event()

        def waiter():
            try:
                yield event
            except ValueError as exc:
                return str(exc)

        def trigger():
            yield env.timeout(1.0)
            event.fail(ValueError("boom"))

        p = env.process(waiter())
        env.process(trigger())
        assert env.run(until=p) == "boom"

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")

    def test_value_before_trigger_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            __ = env.event().value

    def test_waiting_on_already_processed_event(self):
        env = Environment()
        event = env.event()
        event.succeed("early")
        env.run(until=0.5)
        assert event.processed

        def late_waiter():
            value = yield event
            return value

        p = env.process(late_waiter())
        assert env.run(until=p) == "early"


class TestProcess:
    def test_process_return_value(self):
        env = Environment()

        def proc():
            yield env.timeout(1)
            return "done"

        p = env.process(proc())
        assert env.run(until=p) == "done"

    def test_process_waits_on_process(self):
        env = Environment()

        def child():
            yield env.timeout(2)
            return 7

        def parent():
            value = yield env.process(child())
            return value * 3

        p = env.process(parent())
        assert env.run(until=p) == 21
        assert env.now == 2

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_yielding_non_event_fails_process(self):
        env = Environment()

        def bad():
            yield 42

        p = env.process(bad())
        with pytest.raises(SimulationError):
            env.run(until=p)

    def test_unhandled_process_exception_surfaces(self):
        env = Environment()

        def bad():
            yield env.timeout(1)
            raise RuntimeError("exploded")

        env.process(bad())
        with pytest.raises(RuntimeError, match="exploded"):
            env.run()

    def test_interrupt_wakes_sleeping_process(self):
        env = Environment()

        def sleeper():
            try:
                yield env.timeout(100)
                return "overslept"
            except Interrupt as exc:
                return ("woken", exc.cause, env.now)

        p = env.process(sleeper())

        def interrupter():
            yield env.timeout(2)
            p.interrupt(cause="alarm")

        env.process(interrupter())
        assert env.run(until=p) == ("woken", "alarm", 2.0)

    def test_interrupt_finished_process_rejected(self):
        env = Environment()

        def quick():
            yield env.timeout(1)

        p = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_is_alive_transitions(self):
        env = Environment()

        def proc():
            yield env.timeout(1)

        p = env.process(proc())
        assert p.is_alive
        env.run()
        assert not p.is_alive


class TestCombinators:
    def test_any_of_fires_on_first(self):
        env = Environment()

        def proc():
            result = yield env.any_of([env.timeout(5, "slow"),
                                       env.timeout(1, "fast")])
            return sorted(result.values())

        p = env.process(proc())
        assert env.run(until=p) == ["fast"]
        assert env.now == 1

    def test_all_of_waits_for_all(self):
        env = Environment()

        def proc():
            result = yield env.all_of([env.timeout(5, "slow"),
                                       env.timeout(1, "fast")])
            return sorted(result.values())

        p = env.process(proc())
        assert env.run(until=p) == ["fast", "slow"]
        assert env.now == 5

    def test_empty_all_of_fires_immediately(self):
        env = Environment()

        def proc():
            yield env.all_of([])
            return env.now

        p = env.process(proc())
        assert env.run(until=p) == 0.0

    def test_all_of_with_pretriggered_events(self):
        env = Environment()
        done = env.event()
        done.succeed("x")

        def proc():
            result = yield env.all_of([done, env.timeout(1, "y")])
            return sorted(result.values())

        p = env.process(proc())
        assert env.run(until=p) == ["x", "y"]

    def test_run_until_event_exhausted_queue_raises(self):
        env = Environment()
        never = env.event()
        with pytest.raises(SimulationError):
            env.run(until=never)


class TestRunUntil:
    """``run(until=...)`` stop semantics of the one event loop."""

    def test_events_at_exactly_until_run(self):
        env = Environment()
        log = []

        def packet_level():
            log.append(("packet", env.now))
            # Scheduled at the stop instant, on the later lane.
            env.call_at(env.now, log.append, ("flow", env.now),
                        priority=FLOW_LEVEL_PRIORITY)

        env.call_at(2.0, packet_level)
        env.call_at(2.5, log.append, ("late", 2.5))
        env.run(until=2.0)
        assert log == [("packet", 2.0), ("flow", 2.0)]
        assert env.now == 2.0
        assert env.peek() == 2.5

    def test_until_processed_event_returns_value_and_pops_nothing(self):
        env = Environment()
        done = env.event()
        done.succeed("v")
        env.run()
        fired = []
        env.call_later(1.0, fired.append, "later")
        assert env.run(until=done) == "v"
        assert fired == []
        assert env.now == 0.0
        assert env.peek() == 1.0

    def test_run_resumes_after_escaped_exception(self):
        env = Environment()
        log = []

        def boom():
            raise RuntimeError("boom")

        env.call_later(1.0, boom)
        env.call_later(2.0, log.append, "after")
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
        assert env.now == 1.0
        assert log == []
        env.run()
        assert log == ["after"]
        assert env.now == 2.0


_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])

# One scheduling op: (kind, time, lane, follow-up).  ``time`` is a delay
# for timeout/delay and an absolute instant for call_at/cancel; a
# follow-up schedules a flow-lane call at the instant the op fires.
_OPS = st.lists(
    st.tuples(st.sampled_from(["timeout", "delay", "call_at", "cancel"]),
              _TIMES, st.sampled_from([1, FLOW_LEVEL_PRIORITY]),
              st.booleans()),
    min_size=1, max_size=25)


def _schedule(env, ops, log):
    handles = []

    def fire(i, follow_up):
        log.append((i, env.now))
        if follow_up:
            env.call_at(env.now, log.append, (-i - 1, env.now),
                        priority=FLOW_LEVEL_PRIORITY)

    def waiter(i, make, delay, follow_up):
        yield make(delay)
        fire(i, follow_up)

    for i, (kind, when, lane, follow_up) in enumerate(ops):
        if kind == "call_at":
            handles.append(env.call_at(when, fire, i, follow_up,
                                       priority=lane))
        elif kind == "cancel":
            if handles:
                env.call_at(when, handles[i % len(handles)].cancel,
                            priority=lane)
        else:
            make = env.timeout if kind == "timeout" else env.delay
            env.process(waiter(i, make, when, follow_up))


@settings(max_examples=150, deadline=None)
@given(ops=_OPS, untils=st.lists(_TIMES, max_size=4))
def test_chunked_run_matches_one_run(ops, untils):
    whole_log = []
    whole = Environment()
    _schedule(whole, ops, whole_log)
    whole.run()

    chunked_log = []
    chunked = Environment()
    _schedule(chunked, ops, chunked_log)
    for until in sorted(untils):
        chunked.run(until=until)
        assert chunked.now == until
        assert chunked.peek() > until
        assert all(t <= until for _, t in chunked_log)
    chunked.run()

    assert chunked_log == whole_log
    assert chunked.scheduled_events == whole.scheduled_events
    assert chunked.cancelled_events == whole.cancelled_events
    assert chunked.now == max([whole.now] + untils)


class TestNaNTimes:
    """A NaN time compares false with everything; the kernel rejects it
    instead of letting ``now`` become NaN or a call jump the queue."""

    def test_run_until_nan(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.run(until=math.nan)
        assert env.now == 0.0

    def test_timeout_nan(self):
        with pytest.raises(SimulationError):
            Environment().timeout(math.nan)

    def test_delay_nan(self):
        with pytest.raises(SimulationError):
            Environment().delay(math.nan)

    def test_call_later_nan(self):
        with pytest.raises(SimulationError):
            Environment().call_later(math.nan, lambda: None)

    def test_call_at_nan(self):
        with pytest.raises(SimulationError):
            Environment().call_at(math.nan, lambda: None)

    def test_initial_time_nan(self):
        with pytest.raises(SimulationError):
            Environment(initial_time=math.nan)
