"""The engine's process registry: a process enters it once, when created, and
leaves it once, when its body returns, raises or is killed.

When the queues drain, every process still in the registry is blocked on an
effect that can no longer fire, so the registry is the deadlock report.
"""

import pytest

from repro.errors import DeadlockError, DeadPlaceError
from repro.harness import runner
from repro.harness.runner import PORTABLE_KERNELS, simulate
from repro.machine.config import MachineConfig
from repro.runtime import ApgasRuntime
from repro.sim import Engine, Process, SimEvent, Timeout


@pytest.mark.parametrize("kernel", PORTABLE_KERNELS)
def test_registry_is_empty_after_every_kernel(kernel, monkeypatch):
    made = []

    def capturing(*args, **kwargs):
        rt = runner_make_runtime(*args, **kwargs)
        made.append(rt)
        return rt

    runner_make_runtime = runner.make_runtime
    monkeypatch.setattr(runner, "make_runtime", capturing)
    simulate(kernel, 4)
    (rt,) = made
    assert rt.engine._blocked == {}


def test_process_is_registered_while_it_lives():
    eng = Engine()
    gate = SimEvent("gate")

    def body():
        yield Timeout(1.0)
        yield gate

    proc = Process(eng, body(), name="gated")
    assert list(eng._blocked.values()) == [proc]
    eng.run(until=2.0)
    assert list(eng._blocked.values()) == [proc]
    gate.trigger()
    eng.run()
    assert proc.done.fired
    assert eng._blocked == {}


def test_a_process_killed_by_a_place_death_leaves_the_registry():
    rt = ApgasRuntime(places=4, config=MachineConfig.small(), chaos="seed=0,kill=1@0.001")
    parked = []

    def park(ctx):
        parked.append(ctx.activity)
        yield ctx.recv("never-filled")

    def main(ctx):
        try:
            with ctx.finish() as f:
                ctx.at_async(1, park)
            yield f.wait()
        except DeadPlaceError:
            return "place 1 died"

    assert rt.run(main) == "place 1 died"
    (activity,) = parked
    assert activity.process.killed
    assert rt.engine._blocked == {}


def test_a_crashed_process_leaves_the_registry():
    eng = Engine()

    def child():
        yield Timeout(1.0)
        raise RuntimeError("remote failure")

    def parent(ch):
        try:
            yield ch
        except RuntimeError:
            return "caught"

    ch = Process(eng, child())
    par = Process(eng, parent(ch))
    eng.run()
    assert par.done.value == "caught"
    assert eng._blocked == {}


def test_an_orphan_crash_leaves_the_registry_as_it_aborts_the_run():
    eng = Engine()

    def body():
        yield Timeout(1.0)
        raise RuntimeError("boom")

    Process(eng, body())
    with pytest.raises(RuntimeError, match="boom"):
        eng.run()
    assert eng._blocked == {}


def test_deadlock_names_exactly_the_process_blocked_on_a_dead_event():
    eng = Engine()
    fired = SimEvent("fired")
    fired.trigger()

    def finishes(i):
        yield Timeout(float(i))
        yield fired  # already fired: resumes at once
        return i

    def stuck():
        yield Timeout(0.5)
        yield SimEvent("never")

    done = [Process(eng, finishes(i), name=f"ok{i}") for i in range(3)]
    blocked = Process(eng, stuck(), name="stuck-forever")
    with pytest.raises(DeadlockError, match="stuck-forever") as exc_info:
        eng.run()
    assert exc_info.value.blocked == [blocked]
    assert all(p.done.fired for p in done)

