"""Finish protocols under fault injection, pragma by pragma.

Under drop/dup/delay faults every protocol must still detect termination with
the correct counts (the transport recovers the messages); under a place kill
a non-tolerant finish must fail with a structured
:class:`~repro.errors.DeadPlaceError` — in bounded simulation steps, never a
hang.
"""

import pytest

from repro.errors import DeadPlaceError
from repro.runtime.finish.pragmas import Pragma

from tests.chaos.conftest import STEP_CAP, counter_total, make_chaos_runtime, run_fanout

FANOUT_PRAGMAS = [Pragma.DEFAULT, Pragma.FINISH_SPMD, Pragma.FINISH_DENSE]

#: fixed seeds so each run replays a known fault schedule
SEEDS = [3, 7, 23]


@pytest.mark.parametrize("pragma", FANOUT_PRAGMAS, ids=lambda p: p.value)
@pytest.mark.parametrize("seed", SEEDS)
def test_fanout_terminates_correctly_under_drops(pragma, seed):
    rt = make_chaos_runtime(16, chaos=f"seed={seed},drop=0.25,dup=0.1,rto=1e-4")
    arrivals = run_fanout(rt, pragma=pragma, repeats=2)
    assert arrivals == {p: 2 for p in range(1, 16)}
    assert counter_total(rt, "chaos.drops") > 0


@pytest.mark.parametrize("pragma", FANOUT_PRAGMAS, ids=lambda p: p.value)
def test_fanout_terminates_correctly_under_delays_and_reorders(pragma):
    rt = make_chaos_runtime(16, chaos="seed=5,delay=0.4:5e-5,reorder=0.3:1e-4")
    arrivals = run_fanout(rt, pragma=pragma, repeats=2)
    assert arrivals == {p: 2 for p in range(1, 16)}
    assert counter_total(rt, "chaos.delays") > 0
    assert counter_total(rt, "chaos.reorders") > 0


@pytest.mark.parametrize("pragma", FANOUT_PRAGMAS, ids=lambda p: p.value)
def test_kill_surfaces_as_dead_place_error_not_hang(pragma):
    """Killing a participant mid-fan-out fails the finish with a structured
    error; the step cap turns any residual hang into a loud failure."""
    rt = make_chaos_runtime(16, chaos="seed=1,kill=7@5e-5")
    with pytest.raises(DeadPlaceError) as excinfo:
        run_fanout(rt, pragma=pragma, work_seconds=2e-4)
    assert excinfo.value.place == 7
    assert counter_total(rt, "finish.failed") >= 1


def test_finish_async_round_trip_survives_drops():
    rt = make_chaos_runtime(8, chaos="seed=9,drop=0.3,rto=1e-4")
    results = {}

    def evaluate(ctx):
        yield ctx.compute(seconds=1e-6)
        return ctx.here * 10

    def main(ctx):
        for p in range(1, 8):
            results[p] = yield ctx.at(p, evaluate)

    rt.run(main, max_events=STEP_CAP)
    assert results == {p: p * 10 for p in range(1, 8)}


def test_remote_eval_at_killed_place_raises():
    rt = make_chaos_runtime(8, chaos="seed=0,kill=3@1e-4")

    def slow_eval(ctx):
        yield ctx.compute(seconds=1e-3)  # still running when 3 dies
        return 42

    def main(ctx):
        with pytest.raises(DeadPlaceError) as excinfo:
            yield ctx.at(3, slow_eval)
        assert excinfo.value.place == 3

    rt.run(main, max_events=STEP_CAP)


def test_failed_finish_reports_what_was_lost():
    rt = make_chaos_runtime(16, chaos="seed=1,kill=7@5e-5")
    with pytest.raises(DeadPlaceError) as excinfo:
        run_fanout(rt, work_seconds=2e-4)
    message = str(excinfo.value)
    assert "place 7" in message
    assert "live activities" in message or "lost" in message


def test_spawn_into_failed_finish_is_rejected():
    rt = make_chaos_runtime(8, chaos="seed=0,kill=5@5e-5")
    checked = []

    def worker(ctx):
        yield ctx.compute(seconds=2e-4)

    def main(ctx):
        with ctx.finish() as f:
            for p in range(1, 8):
                ctx.at_async(p, worker)
            with pytest.raises(DeadPlaceError):
                yield f.wait()  # fails when 5 dies
            # further spawns into the failed scope are rejected immediately
            with pytest.raises(DeadPlaceError):
                ctx.at_async(1, worker)
            checked.append(True)

    rt.run(main, max_events=STEP_CAP)
    assert checked == [True]


def test_plain_remote_body_runs_and_fails_in_its_landing_event():
    """A delivered plain body starts inside the landing event under chaos
    too, and a place-death error it raises fails its finish there: no
    zero-delay hop through a process."""
    rt = make_chaos_runtime(8, chaos="seed=0,kill=6@0.0")
    seen = []

    def never_runs(ctx):
        raise AssertionError("place 6 is dead")

    def forward(ctx):
        ctx.at_async(6, never_runs)

    def main(ctx):
        yield ctx.compute(seconds=1e-5)
        with ctx.finish() as f:
            ctx.at_async(5, forward)
        try:
            yield f.wait()
        except DeadPlaceError as exc:
            seen.append((str(exc), ctx.rt.now))

    rt.run(main, max_events=STEP_CAP)
    assert seen == [(
        "place 6 is dead (detected by spawn@5): async to a dead place",
        1.9850666666666666e-05,
    )]
    assert rt.engine.events_executed == 5
