"""Unit tests for generator processes and effects."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import Engine, Process, SimEvent, Store, Timeout


def run(body, **kw):
    eng = Engine()
    proc = Process(eng, body, **kw)
    eng.run()
    return eng, proc


def test_timeout_advances_virtual_time():
    trace = []

    def body():
        trace.append(("start", 0.0))
        yield Timeout(1.5)
        trace.append(("after", 1.5))

    eng, _ = run(body())
    assert trace == [("start", 0.0), ("after", 1.5)]
    assert eng.now == 1.5


def test_return_value_lands_on_done_event():
    def body():
        yield Timeout(1.0)
        return "result"

    _, proc = run(body())
    assert proc.done.value == "result"


def test_wait_on_event_receives_value():
    eng = Engine()
    ev = SimEvent()
    results = []

    def waiter():
        results.append((yield ev))

    Process(eng, waiter())
    eng.schedule(2.0, lambda: ev.trigger("payload"))
    eng.run()
    assert results == ["payload"]


def test_join_another_process():
    eng = Engine()

    def child():
        yield Timeout(3.0)
        return 99

    def parent(ch):
        value = yield ch
        return value + 1

    ch = Process(eng, child())
    par = Process(eng, parent(ch))
    eng.run()
    assert par.done.value == 100
    assert eng.now == 3.0


def test_yield_none_is_cooperative_reschedule():
    eng = Engine()
    order = []

    def a():
        order.append("a1")
        yield None
        order.append("a2")

    def b():
        order.append("b1")
        yield None
        order.append("b2")

    Process(eng, a())
    Process(eng, b())
    eng.run()
    assert order == ["a1", "b1", "a2", "b2"]


def test_store_get_blocks_until_put():
    eng = Engine()
    store = Store()
    got = []

    def consumer():
        got.append((yield store.get()))

    Process(eng, consumer())
    eng.schedule(4.0, lambda: store.put("item"))
    eng.run()
    assert got == ["item"]
    assert eng.now == 4.0


def test_store_fifo_across_getters():
    eng = Engine()
    store = Store()
    got = []

    def consumer(tag):
        item = yield store.get()
        got.append((tag, item))

    Process(eng, consumer("first"))
    Process(eng, consumer("second"))
    eng.schedule(1.0, lambda: store.put("a"))
    eng.schedule(2.0, lambda: store.put("b"))
    eng.run()
    assert got == [("first", "a"), ("second", "b")]


def test_store_try_get():
    store = Store()
    assert store.try_get() == (False, None)
    store.put(7)
    assert store.try_get() == (True, 7)
    assert len(store) == 0


def test_non_generator_body_rejected():
    eng = Engine()
    with pytest.raises(SimulationError, match="generator"):
        Process(eng, lambda: None)


def test_unknown_effect_rejected():
    def body():
        yield object()

    eng = Engine()
    Process(eng, body())
    with pytest.raises(SimulationError, match="unknown effect"):
        eng.run()


def test_orphan_crash_aborts_run():
    def body():
        yield Timeout(1.0)
        raise RuntimeError("kernel bug")

    eng = Engine()
    Process(eng, body())
    with pytest.raises(RuntimeError, match="kernel bug"):
        eng.run()


def test_crash_propagates_to_joiner():
    eng = Engine()

    def child():
        yield Timeout(1.0)
        raise ValueError("remote failure")

    def parent(ch):
        try:
            yield ch
        except ValueError as exc:
            return f"caught: {exc}"

    ch = Process(eng, child())
    par = Process(eng, parent(ch))
    eng.run()
    assert par.done.value == "caught: remote failure"


def test_deadlock_detected_with_blocked_process():
    def body():
        yield SimEvent("never")

    eng = Engine()
    Process(eng, body(), name="stuck")
    with pytest.raises(DeadlockError, match="stuck"):
        eng.run()


def test_many_processes_interleave_deterministically():
    eng = Engine()
    trace = []

    def body(tag, period):
        for i in range(3):
            yield Timeout(period)
            trace.append((eng.now, tag, i))

    for tag, period in [("x", 1.0), ("y", 1.5)]:
        Process(eng, body(tag, period))
    eng.run()
    assert trace == [
        (1.0, "x", 0),
        (1.5, "y", 0),
        (2.0, "x", 1),
        # at t=3.0 y's resume was enqueued first (at t=1.5, vs x's at t=2.0)
        (3.0, "y", 1),
        (3.0, "x", 2),
        (4.5, "y", 2),
    ]


def test_a_long_run_of_ready_events_resumes_without_recursion():
    """Already-fired events resume the process in a loop, not a nested call
    per event: 10,000 in a row (failed ones too) need no stack depth."""
    store = Store()
    for i in range(10_000):
        store.put(i)

    def body():
        total = 0
        for i in range(10_000):
            fired = SimEvent()
            if i % 2:
                fired.fail(ValueError(i))
                try:
                    yield fired
                except ValueError as exc:
                    total -= exc.args[0]
            else:
                fired.trigger(i)
                total += yield fired
            total += yield store.get()
        return total

    eng, proc = run(body())
    assert proc.done.value == sum(range(10_000)) + sum(-i if i % 2 else i for i in range(10_000))
    assert eng.now == 0.0
