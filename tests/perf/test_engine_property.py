"""Seeded property tests for the event core's ordering contract.

:class:`~repro.sim.engine.Engine` promises: events fire in ``(time,
scheduling-order)`` order, runs are deterministic, and cancelled handles are
invisible — they change neither the relative order of the surviving events
nor the final virtual time.  The fast paths (ready-queue batching, slotless
zero-argument posts, payload slots, lazy-deletion compaction) must all
preserve this, so each seed replays a random tape of schedule / call_soon /
post / cancel operations and checks the execution log against an oracle.

Tapes are drawn from :class:`~repro.sim.rng.RngStream` (Philox, keyed by the
seed) — no wall clock, no global random state — so a failing seed replays
identically everywhere.
"""

import pytest

from repro.sim import Engine, RngStream

SEEDS = range(10)


def _random_tape(seed, n_ops=600):
    """A reproducible operation tape: (kind, delay) with interleaved cancels.

    ``kind`` is "schedule" / "soon" / "post" / "cancel"; "post" ops exercise
    the fire-and-forget path with 0 to 3 arguments; cancels target a random
    earlier cancellable op (possibly one already cancelled — a no-op, also
    legal).
    """
    rng = RngStream(seed, "engine-property-tape").generator
    tape = []
    cancellable = []
    for i in range(n_ops):
        roll = rng.random()
        if roll < 0.35:
            # duplicate delays on purpose: ties must break by scheduling order
            delays = [0.0, 1e-6, 5e-6, 1e-5, float(rng.random()) * 1e-4]
            tape.append(("schedule", delays[int(rng.integers(0, len(delays)))]))
            cancellable.append(i)
        elif roll < 0.55:
            tape.append(("soon", None))
            cancellable.append(i)
        elif roll < 0.75:
            # fire-and-forget, not cancellable
            tape.append(("post", float(rng.random()) * 1e-5 if rng.random() < 0.5 else 0.0))
        elif cancellable:
            tape.append(("cancel", int(cancellable[int(rng.integers(0, len(cancellable)))])))
        else:
            tape.append(("soon", None))
            cancellable.append(i)
    return tape


def _play(tape, skip_cancelled=False):
    """Run a tape; returns (log of executed op indices+times, final time).

    With ``skip_cancelled`` the ops that the tape later cancels are never
    scheduled at all — the oracle for "cancelled handles are invisible".
    """
    cancelled_ops = {op for kind, op in tape if kind == "cancel"}
    eng = Engine()
    log = []
    handles = {}
    for i, (kind, arg) in enumerate(tape):
        if kind == "cancel":
            if arg in handles:
                handles[arg].cancel()
        elif skip_cancelled and i in cancelled_ops:
            continue
        elif kind == "schedule":
            handles[i] = eng.schedule(arg, lambda i=i: log.append((i, eng.now)))
        elif kind == "post":
            # 0 arguments queue the bare callable, 1-3 ride in the slot
            # table; execution order must be unaffected either way
            extra = tuple(range(i % 4))

            def fire(*got, i=i, extra=extra):
                assert got == extra
                log.append((i, eng.now))

            eng.post(arg, fire, *extra)
        else:
            handles[i] = eng.call_soon(lambda i=i: log.append((i, eng.now)))
    final = eng.run()
    return log, final


@pytest.mark.parametrize("seed", SEEDS)
def test_execution_order_matches_time_then_submission_oracle(seed):
    tape = _random_tape(seed)
    log, _final = _play(tape)
    # oracle: live entries sorted by (fire time, submission index) — Python's
    # sort is stable, so equal times keep tape order
    cancelled = {op for kind, op in tape if kind == "cancel"}
    expected = sorted(
        (
            (0.0 if delay is None else delay, i)
            for i, (kind, delay) in enumerate(tape)
            if kind != "cancel" and i not in cancelled
        ),
    )
    assert [i for i, _t in log] == [i for _t, i in expected]


@pytest.mark.parametrize("seed", SEEDS)
def test_runs_are_deterministic(seed):
    tape = _random_tape(seed)
    assert _play(tape) == _play(tape)


@pytest.mark.parametrize("seed", SEEDS)
def test_cancelled_handles_are_invisible(seed):
    """Same tape with cancelled ops never scheduled: same log, same final time."""
    tape = _random_tape(seed)
    log_lazy, final_lazy = _play(tape)
    log_skip, final_skip = _play(tape, skip_cancelled=True)
    assert [i for i, _t in log_lazy] == [i for i, _t in log_skip]
    assert [t for _i, t in log_lazy] == [t for _i, t in log_skip]
    assert final_lazy == final_skip


@pytest.mark.parametrize("seed", SEEDS)
def test_mid_run_scheduling_is_deterministic(seed):
    """Callbacks that schedule and cancel more work replay identically."""

    def run():
        rng = RngStream(seed, "engine-property-midrun").generator
        eng = Engine()
        log = []
        live = []

        def spawn(depth, tag):
            log.append((tag, eng.now))
            if depth >= 3:
                return
            for k in range(int(rng.integers(0, 3))):
                delay = [0.0, 1e-6, 2e-6][int(rng.integers(0, 3))]
                h = eng.schedule(delay, lambda: spawn(depth + 1, (tag, k)))
                live.append(h)
            if live and rng.random() < 0.3:
                live.pop(int(rng.integers(0, len(live)))).cancel()

        for root in range(20):
            eng.schedule(float(rng.random()) * 1e-5, lambda root=root: spawn(0, root))
        final = eng.run()
        return log, final

    assert run() == run()
