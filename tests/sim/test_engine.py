"""Contract tests for the event heap: ordering, scheduling and counters."""

import pytest

from repro.sim import SchedulingError, Simulator
from repro.sim.engine import Callback


def _recorder(sim, fired):
    """A shared callback tuple appending ``(now, value)`` to ``fired``."""
    return (lambda event: fired.append((sim.now, event.value)),)


def test_clock_starts_at_initial_time():
    assert Simulator().now == 0.0
    assert Simulator(initial_time=5.5).now == 5.5


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    record = _recorder(sim, fired)
    for delay in (5.0, 1.0, 3.0):
        sim.defer(delay, record, delay)
    sim.run()
    assert fired == [(1.0, 1.0), (3.0, 3.0), (5.0, 5.0)]


def test_simultaneous_events_fire_fifo():
    sim = Simulator()
    fired = []
    record = _recorder(sim, fired)
    for tag in "abc":
        sim.defer(1.0, record, tag)
    sim.run()
    assert [value for _, value in fired] == ["a", "b", "c"]


def test_urgent_fires_before_normal_at_equal_time():
    sim = Simulator()
    fired = []
    record = _recorder(sim, fired)
    sim.defer(2.0, record, "normal")
    sim.defer(2.0, record, "urgent", priority=True)
    sim.defer(1.0, record, "earlier")
    sim.run()
    assert [value for _, value in fired] == ["earlier", "urgent", "normal"]


def test_defer_and_call_at_each_consume_one_sequence_number():
    sim = Simulator()
    order = []
    sim.call_at(1.0, lambda: order.append("call_at"))
    assert sim.events_scheduled == 1
    sim.defer(1.0, (lambda e: order.append("defer"),))
    assert sim.events_scheduled == 2
    sim.call_at(1.0, lambda: order.append("call_at2"))
    assert sim.events_scheduled == 3
    sim.run()
    # Same time, same rank: scheduling order decides.
    assert order == ["call_at", "defer", "call_at2"]
    assert sim.events_processed == 3


def test_call_at_arrival_fires_before_later_deferred_departure():
    # The written equal-timestamp convention: a call_at scheduled at
    # t=0 for t=1 precedes a departure deferred (later) for t=1.
    sim = Simulator()
    order = []
    sim.call_at(1.0, lambda: order.append("arrival"))
    sim.call_at(0.0, lambda: sim.defer(
        1.0, (lambda e: order.append("departure"),)))
    sim.run()
    assert order == ["arrival", "departure"]


def test_call_at_runs_function_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.call_at(6.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [6.0]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.defer(-1.0, (lambda e: None,))
    assert sim.events_scheduled == 0


def test_call_at_in_past_rejected():
    sim = Simulator(initial_time=3.0)
    with pytest.raises(SchedulingError):
        sim.call_at(2.0, lambda: None)
    assert sim.events_scheduled == 0


def test_run_until_past_time_rejected():
    sim = Simulator(initial_time=5.0)
    with pytest.raises(SchedulingError):
        sim.run(until=1.0)


def test_run_drains_heap_when_until_none():
    sim = Simulator()
    sim.defer(1.0, (lambda e: None,))
    sim.defer(7.0, (lambda e: None,))
    sim.run()
    assert sim.now == 7.0
    assert sim.events_processed == 2


def test_run_until_advances_clock_exactly():
    sim = Simulator()
    sim.defer(3.0, (lambda e: None,))
    sim.run(until=10.0)
    assert sim.now == 10.0
    # The stop event is one push and one pop, like any other event.
    assert sim.events_scheduled == 2
    assert sim.events_processed == 2


def test_run_until_excludes_normal_events_at_the_horizon():
    sim = Simulator()
    fired = []
    record = _recorder(sim, fired)
    sim.defer(5.0, record, "at-horizon")
    sim.run(until=5.0)
    assert fired == []
    assert sim.now == 5.0
    # Resuming processes it at the same instant.
    sim.run()
    assert fired == [(5.0, "at-horizon")]


def test_run_until_is_resumable():
    sim = Simulator()
    ticks = []

    def tick(_event):
        ticks.append(sim.now)
        sim.defer(1.0, callbacks)

    callbacks = (tick,)
    sim.defer(1.0, callbacks)
    sim.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]
    sim.run(until=5.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert sim.now == 5.5


def test_run_until_now_is_noop():
    sim = Simulator(initial_time=2.0)
    fired = []
    sim.defer(1.0, _recorder(sim, fired))
    sim.run(until=2.0)
    assert sim.now == 2.0
    assert fired == []


def test_run_while_stops_on_predicate_and_resumes():
    sim = Simulator()
    fired = []
    record = _recorder(sim, fired)
    for t in (1.0, 2.0, 3.0, 4.0):
        sim.defer(t, record, t)
    assert sim.run_while(lambda: len(fired) < 2) is True
    assert [value for _, value in fired] == [1.0, 2.0]
    assert sim.now == 2.0
    # Remaining events stay on the heap.
    assert sim.run_while(lambda: True) is False
    assert [value for _, value in fired] == [1.0, 2.0, 3.0, 4.0]


def test_run_while_checks_predicate_before_each_event():
    sim = Simulator()
    calls = []
    sim.defer(1.0, (lambda e: calls.append("event"),))
    sim.defer(2.0, (lambda e: calls.append("event"),))

    def predicate():
        calls.append("check")
        return True

    assert sim.run_while(predicate) is False
    assert calls == ["check", "event", "check", "event"]

    sim = Simulator()
    sim.defer(1.0, (lambda e: None,))
    assert sim.run_while(lambda: False) is True
    assert sim.events_processed == 0


def test_run_while_returns_false_when_heap_drains():
    sim = Simulator()
    sim.defer(1.0, (lambda e: None,))
    assert sim.run_while(lambda: True) is False
    assert sim.events_processed == 1
    # Draining never raises, even on an empty heap.
    assert sim.run_while(lambda: True) is False


def test_callbacks_receive_the_value():
    sim = Simulator()
    seen = []
    sim.defer(0.0, (lambda e: seen.append(e.value),
                    lambda e: seen.append(type(e))), value="v")
    sim.run()
    assert seen == ["v", Callback]


def test_shared_callback_tuple_is_reused_across_events():
    sim = Simulator()
    hits = []
    shared = (lambda e: hits.append(e.value),)
    for i in range(3):
        sim.defer(float(i), shared, value=i)
    sim.run()
    assert hits == [0, 1, 2]


def test_repr_smoke():
    sim = Simulator()
    sim.defer(1.0, (lambda e: None,))
    assert "pending=1" in repr(sim)
    assert "value=7" in repr(Callback((), 7))
