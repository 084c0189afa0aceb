"""Benchmark-owned APGAS programs for the ``procs_*`` workloads.

Every function is module-level and uses only the portable ``ctx`` subset
(``at``, ``at_async``, ``finish``, ``places``, ``here``), so the procs backend
can ship it to another place process by module reference.  The programs time
their own round trips with the wall clock: they exist to measure real
processes, and are never run on the simulator.
"""

from __future__ import annotations

import time

import numpy as np

from repro.runtime.finish.pragmas import Pragma


def echo(ctx, x):
    """The remote half of a round trip: hand the argument straight back."""
    return x


def leaf(ctx):
    """An activity with no body: all its cost is spawn + finish protocol."""


def empty_main(ctx):
    """A program that does nothing: what is left is fork, EXIT/DONE and reap."""
    return {}


def pinger(ctx, dst: int, n: int, payload):
    """``n`` closed-loop ``ctx.at(dst, echo, payload)`` round trips from here.

    Returns the per-trip wall seconds and whether every reply came back equal
    to what was sent (arrays: same dtype, shape and bytes).
    """
    rtts = []
    intact = True
    clock = time.perf_counter
    is_array = isinstance(payload, np.ndarray)
    for _ in range(n):
        t0 = clock()
        reply = yield ctx.at(dst, echo, payload)
        rtts.append(clock() - t0)
        if is_array:
            intact &= reply.dtype == payload.dtype and np.array_equal(reply, payload)
        else:
            intact &= reply == payload
    return {"rtt_s": rtts, "intact": bool(intact)}


def rtt_1hop_main(ctx, n: int):
    """Place 0 -> place 1 and back: one socket hop each way."""
    return (yield from pinger(ctx, 1, n, 0))


def rtt_2hop_main(ctx, n: int):
    """Place 1 -> place 2 and back: every frame crosses the star router."""
    return (yield ctx.at(1, pinger, 2, n, 0))


def dense_waves_main(ctx, waves: int):
    """``waves`` FINISH_DENSE scopes, each spawning ``leaf`` at every other place."""
    t0 = time.perf_counter()
    for _ in range(waves):
        with ctx.finish(Pragma.FINISH_DENSE) as f:
            for place in ctx.places():
                if place != ctx.here:
                    ctx.at_async(place, leaf)
        yield f.wait()
    return {"wall_s": time.perf_counter() - t0}


def echo_bulk_main(ctx, n: int, nbytes: int, seed: int):
    """``n`` round trips of one ``nbytes`` float64 array, place 0 <-> place 1."""
    payload = np.random.default_rng(seed).random(nbytes // 8)
    return (yield from pinger(ctx, 1, n, payload))
