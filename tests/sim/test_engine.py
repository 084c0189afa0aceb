"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_schedule_advances_clock():
    eng = Engine()
    seen = []
    eng.schedule(2.5, lambda: seen.append(eng.now))
    eng.run()
    assert seen == [2.5]
    assert eng.now == 2.5


def test_events_fire_in_time_order():
    eng = Engine()
    order = []
    eng.schedule(3.0, lambda: order.append("c"))
    eng.schedule(1.0, lambda: order.append("a"))
    eng.schedule(2.0, lambda: order.append("b"))
    eng.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_scheduling_order():
    eng = Engine()
    order = []
    for tag in "abcde":
        eng.schedule(1.0, lambda tag=tag: order.append(tag))
    eng.run()
    assert order == list("abcde")


def test_call_soon_runs_at_current_time():
    eng = Engine()
    times = []
    eng.schedule(5.0, lambda: eng.call_soon(lambda: times.append(eng.now)))
    eng.run()
    assert times == [5.0]


def test_nested_scheduling_from_callbacks():
    eng = Engine()
    seen = []

    def first():
        seen.append(("first", eng.now))
        eng.schedule(1.0, lambda: seen.append(("second", eng.now)))

    eng.schedule(2.0, first)
    eng.run()
    assert seen == [("first", 2.0), ("second", 3.0)]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Engine().schedule(-0.1, lambda: None)


def test_cancel_prevents_execution():
    eng = Engine()
    seen = []
    handle = eng.schedule(1.0, lambda: seen.append("x"))
    handle.cancel()
    eng.run()
    assert seen == []


def test_run_until_pauses_and_resumes():
    eng = Engine()
    seen = []
    eng.schedule(1.0, lambda: seen.append(1))
    eng.schedule(10.0, lambda: seen.append(10))
    eng.run(until=5.0)
    assert seen == [1]
    assert eng.now == 5.0
    eng.run()
    assert seen == [1, 10]
    assert eng.now == 10.0


def test_events_executed_counter():
    eng = Engine()
    for _ in range(7):
        eng.schedule(1.0, lambda: None)
    eng.run()
    assert eng.events_executed == 7
