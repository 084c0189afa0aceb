"""Outside-in probes: each layer's public API driven at fixed work.

Every probe calls only entry points that survive the planned collapse of the
scheduling surface (``make_engine()``, ``schedule``, ``call_soon``,
``handle.cancel``, ``run``) or a layer's own public constructor, and returns
a rate.  They are workload-independent: a probe that moves while a
workload's ``wall_s`` does not says the layer got faster where the workload
does not use it.  A probe whose API is gone reports 0 and a failure line; it
never aborts the run.
"""

from __future__ import annotations

import socket
import statistics
import time
from typing import Callable

import numpy as np

#: timed runs per probe; the median is reported
REPEATS = 3


def _noop() -> None:
    pass


def _sim_timers(n: int) -> float:
    from repro.sim import make_engine

    eng = make_engine()
    for i in range(n):
        # Knuth-hash the index into a delay so pushes interleave with pops
        eng.schedule(((i * 2654435761) % 997 + 1) * 1e-6, _noop)
    eng.run()
    return n


def _sim_ready(n: int) -> float:
    from repro.sim import make_engine

    eng = make_engine()
    left = [n]

    def tick() -> None:
        left[0] -= 1
        if left[0] > 0:
            eng.call_soon(tick)

    eng.call_soon(tick)
    eng.run()
    return n


def _sim_cancel(n: int) -> float:
    """Arm ``n`` timers and cancel nine in ten: the retransmit-timer pattern."""
    from repro.sim import make_engine

    eng = make_engine()
    handles = [eng.schedule((i % 97 + 1) * 1e-6, _noop) for i in range(n)]
    for i, handle in enumerate(handles):
        if i % 10:
            handle.cancel()
    eng.run()
    return n


def _transport_roundtrips(n: int) -> float:
    from repro.machine.config import MachineConfig
    from repro.machine.topology import Topology
    from repro.sim import make_engine
    from repro.xrt.pami import PamiTransport

    eng = make_engine()
    cfg = MachineConfig.small()
    transport = PamiTransport(eng, cfg, Topology(cfg, 2))
    left = [n]

    def ping(dst: int, body: object) -> None:
        transport.post_args(1, 0, "pong", None)

    def pong(dst: int, body: object) -> None:
        left[0] -= 1
        if left[0] > 0:
            transport.post_args(0, 1, "ping", None)

    transport.register_handler("ping", ping)
    transport.register_handler("pong", pong)
    transport.post_args(0, 1, "ping", None)
    eng.run()
    return n


def _leaf(ctx) -> None:
    pass


def _finish_joins(pragma_name: str, places: int, waves: int) -> float:
    from repro.harness.runner import make_runtime
    from repro.machine.config import MachineConfig
    from repro.runtime import Pragma

    rt = make_runtime(places, MachineConfig.small())
    pragma = getattr(Pragma, pragma_name)

    def main(ctx):
        for _ in range(waves):
            with ctx.finish(pragma) as f:
                for place in ctx.places():
                    if place != ctx.here:
                        ctx.at_async(place, _leaf)
            yield f.wait()

    rt.run(main)
    return waves * (places - 1)


def _team_allreduce(places: int, rounds: int) -> float:
    from repro.harness.runner import make_runtime
    from repro.machine.config import MachineConfig
    from repro.runtime import Pragma, Team

    rt = make_runtime(places, MachineConfig.small())
    team = Team(rt, list(range(places)))

    def member(ctx):
        for _ in range(rounds):
            yield team.allreduce(ctx, 1.0)

    def main(ctx):
        with ctx.finish(Pragma.FINISH_SPMD) as f:
            for place in ctx.places():
                ctx.at_async(place, member)
        yield f.wait()

    rt.run(main)
    return rounds


def _glb_nodes(depth: int) -> float:
    from repro.harness.runner import simulate

    return simulate("uts", 64, depth=depth).extra["nodes"]


_SMALL_FRAME = ("join", 1, 0, ((0, 17), "finish_dense"))


def _wire_encode(frame, n: int) -> float:
    from repro.xrt.serialization import encode_frame

    for _ in range(n):
        encode_frame(frame)
    return n


def _wire_decode(frame, n: int) -> float:
    from repro.xrt.serialization import FrameDecoder, encode_frame

    data = encode_frame(frame)
    decoder = FrameDecoder()
    for _ in range(n):
        decoder.feed(data)
    if decoder.frames_decoded != n:
        raise RuntimeError(f"decoded {decoder.frames_decoded} of {n} frames")
    return n


def _bulk_frame():
    return ("reply", 1, 0, (0, np.arange(1 << 17, dtype=np.float64), False))


def _conn_stream(frame, n: int) -> float:
    """``n`` frames through a :class:`Conn` pair over one in-process socketpair."""
    from repro.xrt.procs.wire import Conn

    left, right = socket.socketpair()
    tx, rx = Conn(left, peer=1), Conn(right, peer=0)
    try:
        received = 0
        for _ in range(n):
            tx.send_frame(frame)
            while tx.wants_write:
                tx.pump_write()
                received += len(rx.pump_read())
        while received < n:
            received += len(rx.pump_read())
    finally:
        tx.close()
        rx.close()
    return n


def _loop_timers(n: int) -> float:
    from repro.xrt.procs import PlaceLoop

    loop = PlaceLoop(deadline=30.0)
    left = [n]

    def fire() -> None:
        left[0] -= 1
        if left[0] == 0:
            loop.stop()

    try:
        for i in range(n):
            loop.schedule((i % 97 + 1) * 1e-6, fire)
        loop.run()
    finally:
        loop.close()
    return n


def _loop_ready(n: int) -> float:
    from repro.xrt.procs import PlaceLoop

    loop = PlaceLoop(deadline=30.0)
    left = [n]

    def tick() -> None:
        left[0] -= 1
        if left[0] > 0:
            loop.call_soon(tick)
        else:
            loop.stop()

    try:
        loop.call_soon(tick)
        loop.run()
    finally:
        loop.close()
    return n


_MIB = float(1 << 20) / 1e6  # MB in one 1 MiB frame


def _probes(tiny: bool) -> dict:
    """name -> (callable returning work units done, unit scale)."""
    k = 20 if tiny else 1
    return {
        "probe.sim.timers_per_s": (lambda: _sim_timers(60_000 // k), 1.0),
        "probe.sim.ready_per_s": (lambda: _sim_ready(100_000 // k), 1.0),
        "probe.sim.cancel_per_s": (lambda: _sim_cancel(60_000 // k), 1.0),
        "probe.transport.roundtrips_per_s": (lambda: _transport_roundtrips(4000 // k), 1.0),
        "probe.finish.dense_joins_per_s": (lambda: _finish_joins("FINISH_DENSE", 64, 40 // k), 1.0),
        "probe.finish.spmd_joins_per_s": (lambda: _finish_joins("FINISH_SPMD", 64, 120 // k), 1.0),
        "probe.team.allreduce_per_s": (lambda: _team_allreduce(64, 300 // k), 1.0),
        "probe.glb.nodes_per_s": (lambda: _glb_nodes(6 if tiny else 9), 1.0),
        "probe.wire.encode_small_per_s": (lambda: _wire_encode(_SMALL_FRAME, 100_000 // k), 1.0),
        "probe.wire.decode_small_per_s": (lambda: _wire_decode(_SMALL_FRAME, 40_000 // k), 1.0),
        "probe.wire.encode_1MiB_MB_per_s": (lambda: _wire_encode(_bulk_frame(), 300 // k), _MIB),
        "probe.wire.decode_1MiB_MB_per_s": (lambda: _wire_decode(_bulk_frame(), 200 // k), _MIB),
        "probe.conn.frames_per_s": (lambda: _conn_stream(_SMALL_FRAME, 20_000 // k), 1.0),
        "probe.conn.MB_per_s": (lambda: _conn_stream(_bulk_frame(), 60 // k), _MIB),
        "probe.loop.timers_per_s": (lambda: _loop_timers(40_000 // k), 1.0),
        "probe.loop.ready_per_s": (lambda: _loop_ready(100_000 // k), 1.0),
    }


def _rate(fn: Callable[[], float], scale: float) -> float:
    rates = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        units = fn()
        rates.append(units * scale / (time.perf_counter() - t0))
    return statistics.median(rates)


def run_probes(tiny: bool = False) -> tuple:
    """Run every probe; returns ``(metrics, failures)``."""
    metrics, failures = {}, []
    for name, (fn, scale) in _probes(tiny).items():
        try:
            metrics[name] = _rate(fn, scale)
        except Exception as exc:  # the probed API is gone or broke: report, go on
            metrics[name] = 0.0
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    return metrics, failures
