"""Resilient portable programs: the three kernels' checkpoint/restore hooks
(K-Means' and Stream's live beside their member bodies).

Each hook set plugs into :func:`repro.resilient.run_resilient_epochs`, the one
epoch coordinator, and keeps its per-place state in ``ctx.store`` (a genuinely
private heap per place process), so the same program runs on both backends.
A place death fails the survivors' blocked collectives on both: each runtime
fails a member blocked in ``ctx.recv`` (a message-program team), and the
simulator's rendezvous ``Team`` fails its rendezvous.
:func:`build_resilient_program` binds :func:`resilient_main` into a program.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict

from repro.errors import KernelError
from repro.kernels.kmeans.kmeans import kmeans_epoch, kmeans_restore, kmeans_result
from repro.kernels.portable import program_params
from repro.kernels.portable.uts_program import _result as _uts_result
from repro.kernels.portable.uts_program import uts_loop
from repro.kernels.stream.stream import stream_epoch, stream_params, stream_restore, stream_result
from repro.resilient import require_resilient, run_resilient_epochs
from repro.resilient.checkpoint import DEFAULT_MAX_ATTEMPTS


# -- kernel hooks ---------------------------------------------------------------------
#
# Each kernel declares (restore, body, finalize, epochs, team):
#   restore(ctx, committed_epoch, blob, p) -- (re)build this place's state in
#       ctx.store; blob None means "before any epoch": initialize from scratch.
#   body(ctx, epoch, tag, p)               -- one epoch on the state; returns
#       the checkpoint blob (a *copy*: the blob must not alias live arrays).
#   finalize(committed, p, n_places)       -- the program result, computed
#       from the last committed blobs only.
# With ``team`` set, restore and body also take the run's ``team=``.


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
    # kernel -> (restore, body, finalize, epochs_from_params, team)
    "kmeans": (
        kmeans_restore, kmeans_epoch,
        lambda committed, p, n_places: kmeans_result(committed[0], p),
        lambda p: p["iterations"], True,
    ),
    "stream": (
        stream_restore, stream_epoch,
        lambda committed, p, n_places: stream_result([committed[q] for q in sorted(committed)], p),
        lambda p: p["iterations"], True,
    ),
    "uts": (_uts_restore, _uts_body, _uts_finalize, lambda p: 1, False),
}


def resilient_main(ctx, kernel: str, p: dict, max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                   team=None):
    """Checkpointed epochs of ``kernel`` that survive place kills and finish
    with the fault-free result.  A kernel with a team (for its collectives,
    or to name the run's state) gets ``team``, by default a fresh
    ``ctx.team`` over every place."""
    restore_fn, body_fn, finalize, epochs_of, uses_team = _HOOKS[kernel]
    hooks: Dict[str, Any] = {"p": p}
    if uses_team:
        hooks["team"] = ctx.team(ctx.places()) if team is None else team
    committed, stats = yield from run_resilient_epochs(
        ctx, epochs_of(p), functools.partial(body_fn, **hooks),
        functools.partial(restore_fn, **hooks), max_attempts,
    )
    result = finalize(committed, p, ctx.n_places)
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
    if kernel == "stream":
        p = stream_params(**p)  # the body's parameters from the program's
    epochs = _HOOKS[kernel][3](p)
    if epochs < 1:
        raise KernelError(
            f"resilient {kernel} needs at least one epoch (iterations >= 1), "
            f"got {epochs}"
        )
    main = functools.partial(resilient_main, kernel=kernel, p=p, max_attempts=max_attempts)
    main.__name__ = f"resilient:{kernel}"  # type: ignore[attr-defined]
    return main


__all__ = ["build_resilient_program", "resilient_main"]
