"""EP Stream Triad: ``a = b + alpha * c`` (paper Section 5.1).

A straightforward SPMD code: the main activity launches an activity at every
place using a PlaceGroup broadcast; these allocate and initialize the local
arrays, perform the computation, and verify the results.

One program on every backend: :func:`stream_main` (``build_program``) and
:func:`build_stream` run :func:`stream_body` at every member, its arrays in
``ctx.store[("stream", team)]``; resilient runs drive the same state through
:func:`stream_restore` and :func:`stream_epoch`.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Optional

import numpy as np

from repro.errors import KernelError
from repro.harness.results import KernelResult, checksum_bytes
from repro.machine.memory import stream_bw_per_place
from repro.runtime.broadcast import PlaceGroup, broadcast_spawn, gather_at
from repro.runtime.runtime import ApgasRuntime

#: triad traffic per element: read b, read c, write a
BYTES_PER_ELEMENT = 24


def triad(a: np.ndarray, b: np.ndarray, c: np.ndarray, alpha: float) -> None:
    """The triad itself, in place: ``a[:] = b + alpha * c``."""
    np.multiply(c, alpha, out=a)
    np.add(a, b, out=a)


def stream_params(n_per_place: int, iterations: int, alpha: float,
                  modeled_per_place: Optional[int] = None) -> dict:
    """The body's parameters, every size checked here, once: ``n_per_place``
    real elements per member, each round charged for ``modeled_per_place``."""
    modeled = n_per_place if modeled_per_place is None else modeled_per_place
    if min(n_per_place, modeled, iterations) < 1:
        raise KernelError("need at least one element and one iteration")
    return {"n": n_per_place, "iterations": iterations, "alpha": alpha,
            "mem_bytes": BYTES_PER_ELEMENT * modeled}


def stream_restore(ctx, committed_epoch: int, blob, p: dict, team) -> None:
    """Initialize a member's arrays by team rank, unless it still has them:
    the triad is idempotent, so a survivor rolls nothing back."""
    key = ("stream", team)
    if committed_epoch < 0 or key not in ctx.store:
        n, topology = p["n"], ctx.rt.topology
        bw = stream_bw_per_place(topology.config, topology.crowd(ctx.here))
        b = np.full(n, 1.0 + team.rank(ctx.here))
        ctx.store[key] = (np.zeros(n), b, np.full(n, 2.0), bw)


def _round(ctx, p: dict, team):
    """One triad on the member's arrays; returns its memory-bus charge to yield."""
    a, b, c, bw = ctx.store[("stream", team)]
    triad(a, b, c, p["alpha"])
    return ctx.compute(mem_bytes=p["mem_bytes"], mem_bw=bw)


def stream_body(ctx, p: dict, team):
    """A member's whole run: initialize its arrays, then every triad round."""
    stream_restore(ctx, -1, None, p, team)
    for _ in range(p["iterations"]):
        yield _round(ctx, p, team)


def stream_epoch(ctx, epoch: int, tag: str, p: dict, team):
    """One triad round at a member; its check is the checkpoint blob."""
    yield _round(ctx, p, team)
    return verdict(ctx.store[("stream", team)], p["alpha"])


def verdict(state: tuple, alpha: float) -> tuple:
    """A member's check: does ``a`` hold ``b + alpha * c`` exactly; and ``a``'s digest."""
    a, b, c, _bw = state
    return bool(np.array_equal(a, b + alpha * c)), hashlib.sha256(a).digest()


def _release(ctx, team, alpha: float) -> tuple:
    return verdict(ctx.store.pop(("stream", team)), alpha)


def stream_result(verdicts: list, p: dict) -> dict:
    """The program result from the members' verdicts in rank order."""
    return {
        "checksum": checksum_bytes(*(digest for _ok, digest in verdicts)),
        "verified": all(ok for ok, _digest in verdicts),
        "n_total": p["n"] * len(verdicts),
        "iterations": p["iterations"],
    }


def stream_main(ctx, **params):
    """The portable program over every place; runs at place 0 (member 0) and
    collects the members' verdicts after the broadcast."""
    team = ctx.team(ctx.places())
    p = stream_params(**params)
    body = functools.partial(stream_body, p=p, team=team)
    yield from broadcast_spawn(ctx, PlaceGroup(team.members), body)
    verdicts = yield from gather_at(ctx, team.members, _release, team, p["alpha"])
    return stream_result(verdicts, p)


def build_stream(
    rt: ApgasRuntime,
    elements_per_place: int,
    iterations: int = 10,
    alpha: float = 3.0,
    actual_elements: Optional[int] = None,
    resilient: bool = False,
    group: Optional[PlaceGroup] = None,
):
    """Build the Stream program over ``group`` (default: the whole machine).

    Returns ``(main, finalize)``: ``main`` is an embeddable activity body
    (the serving layer spawns many of these inside one engine drain) and
    ``finalize()`` checks every member's arrays and computes the
    :class:`KernelResult`.  Arrays are initialized by group *rank*, so the
    result depends only on the parameters and the group width.

    ``elements_per_place`` sizes the *modeled* arrays (time charges);
    ``actual_elements`` (default: capped at 65,536) sizes the real arrays the
    kernel actually computes on and verifies — so at-scale runs do not
    allocate terabytes.

    With ``resilient`` each triad round is a checkpoint epoch whose blob is
    the member's verdict: recovery re-*initializes* a revived place's
    arrays instead of restoring bytes.
    """
    real_n = min(elements_per_place, 65_536) if actual_elements is None else actual_elements
    p = stream_params(real_n, iterations, alpha, modeled_per_place=elements_per_place)
    places = list(PlaceGroup.world(rt) if group is None else group)
    if resilient and places != list(range(rt.n_places)):
        raise KernelError("resilient stream requires the whole-machine place group")
    team = rt.team(places)
    if resilient:
        from repro.kernels.portable.resilient import resilient_main

        main = functools.partial(resilient_main, kernel="stream", p=p, team=team)
    else:
        body = functools.partial(stream_body, p=p, team=team)
        main = functools.partial(broadcast_spawn, group=PlaceGroup(places), fn=body)

    def finalize(elapsed: Optional[float] = None) -> KernelResult:
        t = rt.now if elapsed is None else elapsed
        verdicts = [verdict(rt.place(place).store.pop(("stream", team)), alpha) for place in places]
        result = stream_result(verdicts, p)
        rate = p["mem_bytes"] * iterations * len(places) / t if t > 0 else 0.0
        return KernelResult(
            kernel="stream",
            places=len(places),
            sim_time=t,
            value=rate,
            unit="B/s",
            per_core=rate / len(places),
            verified=result["verified"],
            extra={
                "failures": [place for place, (ok, _) in zip(places, verdicts) if not ok],
                "iterations": iterations,
                "checksum": result["checksum"],
            },
        )

    return main, finalize


def run_stream(rt: ApgasRuntime, *args, **kwargs) -> KernelResult:
    """Weak-scaling Stream Triad: build with :func:`build_stream`, run, finalize."""
    main, finalize = build_stream(rt, *args, **kwargs)
    rt.run(main)
    return finalize()
