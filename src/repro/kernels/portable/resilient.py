"""Resilient portable programs: the three kernels' checkpoint/restore hooks.

Each hook set plugs into :func:`repro.resilient.run_resilient_epochs`, the one
epoch coordinator, and keeps its per-place state in ``ctx.store`` (a genuinely
private heap per place process), so the same program runs on both backends.
Kills are survived on real processes, where a place death fails a member
blocked in ``ctx.recv``; the simulator does not wake such a member yet.
:func:`build_resilient_program` wraps the coordinator into a program ``main``.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict

from repro.errors import KernelError
from repro.kernels.portable import program_params
from repro.kernels.portable.programs import (
    _digest,
    _rank_checksum,
    _TICK,
    kmeans_iteration,
)
from repro.kernels.portable.uts_program import _result as _uts_result
from repro.kernels.portable.uts_program import uts_loop
from repro.resilient import require_resilient, run_resilient_epochs
from repro.resilient.checkpoint import DEFAULT_MAX_ATTEMPTS
from repro.sim.rng import RngStream


# -- kernel hooks ---------------------------------------------------------------------
#
# Each kernel declares (restore, body, finalize, epochs):
#   restore(ctx, committed_epoch, blob, p) -- (re)build this place's state in
#       ctx.store; blob None means "before any epoch": initialize from scratch.
#   body(ctx, epoch, tag, p)               -- one epoch on the state; returns
#       the checkpoint blob (a *copy*: the blob must not alias live arrays).
#   finalize(committed, p, n_places)       -- the program result, computed
#       from the last committed blobs only.


def _km_restore(ctx, committed_epoch: int, blob, p: dict):
    from repro.kernels.kmeans.kmeans import generate_points, initial_centroids

    points = generate_points(p["seed"], ctx.here, p["n_per_place"], p["dim"])
    if blob is None:
        # initial_centroids is a pure function of (seed, k, dim), so computing
        # it locally is bit-identical to the plain program's place-0 broadcast
        centroids = initial_centroids(p["seed"], p["k"], p["dim"])
    else:
        centroids = blob.copy()
    ctx.store["resil:km"] = (points, centroids)


def _km_body(ctx, epoch: int, tag: str, p: dict):
    points, centroids = ctx.store["resil:km"]
    centroids = yield from kmeans_iteration(ctx, points, centroids, f"km:{tag}")
    ctx.store["resil:km"] = (points, centroids)
    return centroids.copy()


def _km_finalize(committed: Dict[int, Any], p: dict, n_places: int) -> dict:
    from repro.harness.results import checksum_bytes

    centroids = committed[0]  # identical at every place after the allreduce
    return {
        "checksum": checksum_bytes(_digest(centroids)),
        "centroids": centroids,
        "k": p["k"],
    }


def _stream_restore(ctx, committed_epoch: int, blob, p: dict):
    if blob is None:
        rng = RngStream(p["seed"], f"portable/stream/{ctx.here}")
        n = p["n_per_place"]
        a = rng.uniform(0.0, 1.0, size=n)
        b = rng.uniform(0.0, 1.0, size=n)
        c = rng.uniform(0.0, 1.0, size=n)
    else:
        a, b, c = (arr.copy() for arr in blob)
    ctx.store["resil:stream"] = (a, b, c)


def _stream_body(ctx, epoch: int, tag: str, p: dict):
    from repro.kernels.stream.stream import triad

    a, b, c = ctx.store["resil:stream"]
    yield ctx.compute(seconds=_TICK)
    triad(a, b, c, p["alpha"])
    a, c = c, a  # the plain worker's ping-pong, one epoch per iteration
    ctx.store["resil:stream"] = (a, b, c)
    return (a.copy(), b.copy(), c.copy())


def _stream_finalize(committed: Dict[int, Any], p: dict, n_places: int) -> dict:
    digests = {place: _digest(*committed[place]) for place in committed}
    return {
        "checksum": _rank_checksum(digests),
        "n_total": p["n_per_place"] * n_places,
        "iterations": p["iterations"],
    }


def _uts_restore(ctx, committed_epoch: int, blob, p: dict):
    # nothing to roll back: UTS is a single retry-from-scratch epoch (the
    # node count is invariant under steal interleavings, so a re-execution
    # lands on the identical checksum)
    return None


def _uts_body(ctx, epoch: int, tag: str, p: dict):
    processed = yield from uts_loop(
        ctx, p, ctl_box=f"uts:ctl:{tag}", abort_on_death=True
    )
    return processed


def _uts_finalize(committed: Dict[int, Any], p: dict, n_places: int) -> dict:
    total = sum(committed.values())
    return _uts_result(total, per_place=dict(committed))


_HOOKS: Dict[str, tuple] = {
    # kernel -> (restore, body, finalize, epochs_from_params)
    "kmeans": (_km_restore, _km_body, _km_finalize, lambda p: p["iterations"]),
    "stream": (_stream_restore, _stream_body, _stream_finalize, lambda p: p["iterations"]),
    "uts": (_uts_restore, _uts_body, _uts_finalize, lambda p: 1),
}


def build_resilient_program(
    kernel: str,
    places: int,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    **params: Any,
) -> Callable:
    """The resilient ``main(ctx)`` for ``kernel``: checkpointed epochs that
    survive place kills and finish with the fault-free checksum."""
    require_resilient(kernel)
    p = program_params(kernel, params)
    restore_fn, body_fn, finalize, epochs_of = _HOOKS[kernel]
    epochs = epochs_of(p)
    if epochs < 1:
        raise KernelError(
            f"resilient {kernel} needs at least one epoch (iterations >= 1), "
            f"got {epochs}"
        )
    body = functools.partial(body_fn, p=p)
    restore = functools.partial(restore_fn, p=p)

    def main(ctx):
        committed, stats = yield from run_resilient_epochs(
            ctx, epochs, body, restore, max_attempts
        )
        result = finalize(committed, p, ctx.n_places)
        # underscore prefix: recovery counters are per-run diagnostics,
        # excluded from conformance (fault schedules are backend-variant)
        result["_resilient"] = stats
        return result

    main.__name__ = f"resilient:{kernel}"
    return main


__all__ = ["build_resilient_program"]
