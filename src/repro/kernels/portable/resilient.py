"""Resilient programs: the three kernels' checkpoint/restore hooks
(K-Means' and Stream's live beside their member bodies).

Each hook set plugs into :func:`repro.resilient.run_resilient_epochs`, the one
epoch coordinator, and keeps its per-place state in ``ctx.store`` (a genuinely
private heap per place process), so the same program runs on both backends.
A place death fails the survivors' blocked collectives on both: each runtime
fails a member blocked in ``ctx.recv`` (a message-program team), and the
simulator's rendezvous ``Team`` fails its rendezvous.
:func:`build_resilient_program` binds :func:`resilient_main` into a program;
``simulate(..., resilient=True)`` runs the same one.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Any, Callable, Dict

from repro.kernels.kmeans.kmeans import kmeans_epoch, kmeans_params, kmeans_restore, kmeans_result
from repro.kernels.portable import program_params
from repro.kernels.portable.uts_program import _result as _uts_result
from repro.kernels.portable.uts_program import uts_loop
from repro.kernels.stream.stream import stream_epoch, stream_params, stream_restore, stream_result
from repro.resilient import require_resilient, run_resilient_epochs
from repro.resilient.checkpoint import DEFAULT_MAX_ATTEMPTS, release_members


# -- kernel hooks ---------------------------------------------------------------------
#
# K-Means and Stream declare (restore, body, parameters, result) over the
# run's team: restore(ctx, committed_epoch, blob, p, team) (re)builds this
# place's state (blob None: initialize); body(ctx, epoch, tag, p, team) runs
# one iteration and returns the checkpoint blob (a copy); parameters(**params)
# is the body's p; result(committed, p) is the program result from the last
# committed blobs only, the same one the kernel's main returns.  UTS is one
# retry-from-scratch epoch whose result is the committed counts.


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


def _kmeans_result(committed: Dict[int, Any], p: dict) -> dict:
    others = [hashlib.sha256(committed[q]).digest() for q in sorted(committed)[1:]]
    return kmeans_result(committed[0], others, p)


def _stream_result(committed: Dict[int, Any], p: dict) -> dict:
    places = sorted(committed)
    return stream_result(places, [committed[q] for q in places], p)


def _drop(ctx, key) -> None:
    ctx.store.pop(key, None)


_HOOKS: Dict[str, tuple] = {
    "kmeans": (kmeans_restore, kmeans_epoch, kmeans_params, _kmeans_result),
    "stream": (stream_restore, stream_epoch, stream_params, _stream_result),
}


def resilient_main(ctx, kernel: str, max_attempts: int = DEFAULT_MAX_ATTEMPTS, **params):
    """Checkpointed epochs of ``kernel`` over every place that survive place
    kills and finish with the fault-free result.  ``params`` are the
    program's (see :func:`build_resilient_program`)."""
    if kernel == "uts":
        committed, stats = yield from run_resilient_epochs(
            ctx, 1, functools.partial(_uts_body, p=params),
            functools.partial(_uts_restore, p=params), max_attempts,
        )
        result = _uts_result(sum(committed.values()), per_place=dict(committed))
    else:
        restore_fn, body_fn, parameters, result_of = _HOOKS[kernel]
        p = parameters(**params)
        team = ctx.team(ctx.places())
        hooks = {"p": p, "team": team}
        committed, stats = yield from run_resilient_epochs(
            ctx, p["iterations"], functools.partial(body_fn, **hooks),
            functools.partial(restore_fn, **hooks), max_attempts,
        )
        result = result_of(committed, p)
        yield from release_members(ctx, _drop, (kernel, team))
    # underscore prefix: recovery counters are per-run diagnostics,
    # excluded from conformance (fault schedules are backend-variant)
    result["_resilient"] = stats
    return result


def build_resilient_program(
    kernel: str,
    places: int,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    **params: Any,
) -> Callable:
    """The resilient ``main(ctx)`` for ``kernel``: :func:`resilient_main`
    with ``params`` over the kernel's defaults."""
    require_resilient(kernel)
    p = program_params(kernel, params)
    if kernel in _HOOKS:
        _HOOKS[kernel][2](**p)  # the sizes, checked before any place starts
    main = functools.partial(resilient_main, kernel=kernel, max_attempts=max_attempts, **p)
    main.__name__ = f"resilient:{kernel}"  # type: ignore[attr-defined]
    return main


__all__ = ["build_resilient_program", "resilient_main"]
