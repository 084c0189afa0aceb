"""The benchmark catalog: what ``repro perf`` actually times.

Two suites, mirroring the two layers the fast-path work targets:

* ``sim`` (-> ``BENCH_sim.json``): microbenchmarks of the event core
  (heap timers, batched zero-delay dispatch, payload ``post`` through the
  slot freelist, cancel-churn compaction), the transport's send/ack
  round-trip path, and FINISH_DENSE's coalescing windows.  These localize a
  regression to a subsystem.
* ``kernels`` (-> ``BENCH_kernels.json``): whole-stack macro runs of UTS
  through :func:`repro.harness.simulate` — the number that actually bounds
  how large a sweep the repo can afford.  ``uts@1024`` is the headline
  (the Figure-1 scale) and is skipped in quick mode.

Each bench is deterministic: fixed seeds, fixed scales encoded in the name,
no wall-clock-dependent control flow — only the *timing* varies run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.perf.harness import BenchResult, measure


def _noop() -> None:
    pass


# -- engine microbenchmarks ----------------------------------------------------


def _bench_engine_timers(n: int = 200_000) -> float:
    """Heap-path throughput: ``n`` fire-and-forget timers at scattered delays.

    A zero-argument ``post`` queues the bare callable: the entry is just
    ``(time, seq, callback)`` — no slot, no handle object.
    """
    from repro.sim.engine import Engine

    eng = Engine()
    post = eng.post
    for i in range(n):
        # Knuth-hash the index into a delay so pushes interleave with pops
        post(((i * 2654435761) % 997 + 1) * 1e-6, _noop)
    eng.run()
    return eng.events_executed


def _bench_engine_ready(n: int = 200_000) -> float:
    """Batched zero-delay dispatch: a self-reposting payload ``post`` chain.

    The ready list is drained by cursor in same-timestamp batches; the
    payload argument rides in the slot table, not a closure.
    """
    from repro.sim.engine import Engine

    eng = Engine()

    def tick(remaining: int) -> None:
        if remaining > 1:
            eng.post(0.0, tick, remaining - 1)

    eng.post(0.0, tick, n)
    eng.run()
    return n


def _bench_engine_post(n: int = 200_000) -> float:
    """Slot alloc/free churn through the freelist: payload timers at
    scattered delays.

    Steady state keeps a few hundred slots in flight, so every ``post`` pops
    a recycled slot and every dispatch pushes it back.
    """
    from repro.sim.engine import Engine

    eng = Engine()
    post = eng.post
    for i in range(n):
        post(((i * 2654435761) % 997 + 1) * 1e-6, _noop1, i)
    eng.run()
    return eng.events_executed


def _bench_engine_cancel_churn(waves: int = 100, batch: int = 1000) -> float:
    """Arm-then-cancel churn: the retransmit-timer pattern compaction targets.

    Every wave arms ``batch`` timers and immediately cancels 90% of them —
    the shape chaos-mode retries produce.  Throughput collapses if lazy
    deletion lets the heap fill with corpses.
    """
    from repro.sim.engine import Engine

    eng = Engine()

    def wave(i: int) -> None:
        handles = [eng.schedule((j % 97 + 1) * 1e-6, _noop) for j in range(batch)]
        for h in handles[: batch * 9 // 10]:
            h.cancel()
        if i + 1 < waves:
            eng.post(1e-4, wave, i + 1)

    wave(0)
    eng.run()
    return waves * batch


def _noop1(_a) -> None:
    pass


# -- transport / finish microbenchmarks ---------------------------------------


def _bench_transport_roundtrip(rounds: int = 4000) -> float:
    """Ping-pong over the PAMI transport: one active message each way per round."""
    from repro.machine.config import MachineConfig
    from repro.machine.topology import Topology
    from repro.sim.engine import Engine
    from repro.xrt.pami import PamiTransport

    eng = Engine()
    cfg = MachineConfig.small()
    tp = PamiTransport(eng, cfg, Topology(cfg, 2))
    remaining = rounds

    def ping(dst: int, body: object) -> None:
        tp.post_args(1, 0, "pong", None)

    def pong(dst: int, body: object) -> None:
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            tp.post_args(0, 1, "ping", None)

    tp.register_handler("ping", ping)
    tp.register_handler("pong", pong)
    tp.post_args(0, 1, "ping", None)
    eng.run()
    return rounds


def _bench_finish_dense(places: int = 64, waves: int = 30) -> float:
    """FINISH_DENSE coalescing: waves of world-wide spawns under one dense finish.

    Each wave is one finish scope with an activity at every other place, so
    the router's coalescing windows (and the plain-activity fast path) carry
    all the traffic.  Work units are remote activities joined.
    """
    from repro.harness.runner import make_runtime
    from repro.machine.config import MachineConfig
    from repro.runtime import Pragma

    rt = make_runtime(places, MachineConfig.small())

    def leaf(ctx) -> None:
        pass

    def main(ctx):
        for _ in range(waves):
            with ctx.finish(Pragma.FINISH_DENSE, name="bench") as f:
                for p in ctx.places():
                    if p != ctx.here:
                        ctx.at_async(p, leaf)
            yield f.wait()

    rt.run(main)
    return waves * (places - 1)


# -- kernel macro runs ---------------------------------------------------------


def _bench_uts(places: int) -> Callable[[], float]:
    def run() -> float:
        from repro.harness.runner import simulate

        result = simulate("uts", places)
        return float(result.extra["nodes"])

    return run


# -- catalog -------------------------------------------------------------------


@dataclass(frozen=True)
class Bench:
    """A named, fixed-scale benchmark belonging to one suite."""

    name: str
    suite: str  #: ``"sim"`` or ``"kernels"``
    unit: str
    fn: Callable[[], float]
    quick: bool = True  #: False: skipped under ``--quick`` (full runs only)
    params: dict = field(default_factory=dict)


SUITES = ("sim", "kernels")

BENCHES: list[Bench] = [
    Bench(
        name="engine.timers@200k",
        suite="sim",
        unit="events/s",
        fn=_bench_engine_timers,
        params={"n": 200_000},
    ),
    Bench(
        name="engine.ready@200k",
        suite="sim",
        unit="events/s",
        fn=_bench_engine_ready,
        params={"n": 200_000},
    ),
    Bench(
        name="engine.cancel_churn@100k",
        suite="sim",
        unit="timers/s",
        fn=_bench_engine_cancel_churn,
        params={"waves": 100, "batch": 1000},
    ),
    Bench(
        name="engine.post@200k",
        suite="sim",
        unit="events/s",
        fn=_bench_engine_post,
        params={"n": 200_000},
    ),
    Bench(
        name="transport.roundtrip@4k",
        suite="sim",
        unit="roundtrips/s",
        fn=_bench_transport_roundtrip,
        params={"rounds": 4000},
    ),
    Bench(
        name="finish.dense@64",
        suite="sim",
        unit="joins/s",
        fn=_bench_finish_dense,
        params={"places": 64, "waves": 30},
    ),
    Bench(
        name="uts@256",
        suite="kernels",
        unit="nodes/s",
        fn=_bench_uts(256),
        params={"places": 256, "depth": 9},
    ),
    Bench(
        name="uts@1024",
        suite="kernels",
        unit="nodes/s",
        fn=_bench_uts(1024),
        quick=False,  # the Figure-1-scale run: minutes of wall clock with repeats
        params={"places": 1024, "depth": 9},
    ),
]

_BY_NAME = {b.name: b for b in BENCHES}


def run_suite(
    suite: str,
    quick: bool = False,
    repeats: int = 3,
    log: Optional[Callable[[str], None]] = None,
) -> list[BenchResult]:
    """Run every bench of ``suite`` (skipping full-only ones under ``quick``)."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    results: list[BenchResult] = []
    for bench in BENCHES:
        if bench.suite != suite or (quick and not bench.quick):
            continue
        if log is not None:
            log(f"  {bench.name} ...")
        ops, best_s, runs_s = measure(bench.fn, repeats=repeats)
        results.append(
            BenchResult(
                name=bench.name,
                value=ops / best_s if best_s > 0 else 0.0,
                unit=bench.unit,
                ops=ops,
                best_s=best_s,
                runs_s=[round(r, 6) for r in runs_s],
                params=dict(bench.params),
            )
        )
    return results
