"""Edge-case tests for the engine's boundary semantics."""

import pytest

from repro.sim import Simulator


def test_zero_delay_defer_fires_now_after_current_event():
    sim = Simulator()
    order = []

    def first(_event):
        order.append(("first", sim.now))
        sim.defer(0.0, (lambda e: order.append(("zero-delay", sim.now)),))
        order.append(("first-done", sim.now))

    sim.defer(1.0, (first,))
    sim.run()
    assert order == [("first", 1.0), ("first-done", 1.0),
                     ("zero-delay", 1.0)]


def test_event_scheduled_during_callback_at_same_time_fires_after_pending():
    # A zero-delay event gets a later sequence number than everything
    # already pending at that instant, so it fires after them.
    sim = Simulator()
    order = []
    sim.defer(1.0, (lambda e: sim.defer(
        0.0, (lambda e2: order.append("spawned"),)),))
    sim.defer(1.0, (lambda e: order.append("pending"),))
    sim.run()
    assert order == ["pending", "spawned"]


def test_massive_simultaneous_events_preserve_fifo():
    sim = Simulator()
    fired = []
    record = (lambda e: fired.append(e.value),)
    for i in range(500):
        if i % 2:
            sim.defer(1.0, record, i)
        else:
            sim.call_at(1.0, lambda i=i: fired.append(i))
    sim.run()
    assert fired == list(range(500))
    assert sim.events_scheduled == sim.events_processed == 500


def test_nested_scheduling_during_callbacks():
    sim = Simulator()
    spawned = []

    def child(depth):
        spawned.append(depth)
        if depth < 5:
            sim.defer(0.5, (lambda e: child(depth + 1),))

    sim.defer(0.5, (lambda e: child(1),))
    sim.run()
    assert spawned == [1, 2, 3, 4, 5]
    assert sim.now == pytest.approx(2.5)


def test_urgent_event_scheduled_after_horizon_stop_fires_after_it():
    # run(until=t) pushes its urgent stop entry when the run starts; an
    # urgent entry pushed later for the same instant has a higher
    # sequence number, so the run stops first.
    sim = Simulator()
    fired = []
    sim.call_at(0.5, lambda: sim.defer(
        0.5, (lambda e: fired.append(sim.now),), priority=True))
    sim.run(until=1.0)
    assert fired == []
    assert sim.now == 1.0
    sim.run()
    assert fired == [1.0]
