"""Resilient portable programs: epoch checkpoint/restore over real processes.

The simulator's :class:`~repro.resilient.checkpoint.EpochCoordinator` passes
live hook objects and a shared :class:`~repro.resilient.store.ResilientStore`
through the in-process transport — none of which crosses an OS process
boundary.  This module is its *portable* counterpart: the same epoch contract
(commit at a tolerant dense finish, abort on a mid-epoch death, revive +
restore + retry), rebuilt from ``ctx`` calls whose arguments pickle so it runs
on the one-OS-process-per-place backend where a "place death" is a SIGKILLed
process and "revive" forks a fresh one (``ctx.revive``).

The moving parts:

* place 0's ``main`` runs :func:`run_resilient_epochs` — the coordinator;
* each epoch is one ``tolerate_death`` FINISH_DENSE wave of
  :func:`_member_epoch` activities; a member runs the kernel's epoch body
  and ships its checkpoint blob to place 0's ``resil:ckpt`` mailbox *before*
  its JOIN, so the star router's FIFO guarantees that when the finish fires
  every surviving member's blob has already arrived;
* collective traffic inside an attempt uses an **attempt-scoped tag**
  (``e{epoch}a{attempt}``): messages from an aborted attempt land in
  mailboxes the retry never reads, and a revived place's fresh collective
  counters line up with the survivors' by construction;
* on an abort the coordinator revives dead places, rolls *every* member back
  to the last committed blobs (survivors may have advanced state that no
  longer matches), and re-runs the same epoch.  Kernel bodies are
  deterministic given restored state, so the retry commits byte-identical
  blobs and the final checksum equals the fault-free run's exactly.

Place 0 hosts the coordinator and the router; its death stays unrecoverable,
matching Resilient X10's distinguished-place semantics (and
:meth:`~repro.chaos.ChaosSpec.validate_places` rejects kills aimed at it
before a single process is forked).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict

from repro.errors import DeadPlaceError, KernelError, ResilientError
from repro.kernels.portable import program_defaults
from repro.kernels.portable.programs import (
    _digest,
    _rank_checksum,
    _TICK,
    kmeans_iteration,
)
from repro.kernels.portable.uts_program import _result as _uts_result
from repro.kernels.portable.uts_program import uts_loop
from repro.resilient.checkpoint import drive_hook
from repro.runtime.finish.pragmas import Pragma
from repro.sim.rng import RngStream

#: kernels with portable checkpoint/restore hooks (the procs counterpart of
#: :data:`repro.harness.runner.RESILIENT_KERNELS`)
RESILIENT_PORTABLE = frozenset({"kmeans", "stream", "uts"})

#: place-0 mailbox checkpoint blobs are shipped to, as (attempt, place, blob)
CKPT_BOX = "resil:ckpt"

#: restore-then-retry rounds before the run gives up with ResilientError
DEFAULT_MAX_ATTEMPTS = 8


# -- member activities (module-level: they cross the wire by reference) ---------------


def _member_epoch(ctx, body: Callable, epoch: int, tag: str, attempt: int):
    """Run one epoch body at this member and ship the checkpoint blob home.

    A peer death mid-body surfaces as :class:`DeadPlaceError` (poisoned
    receives, failed collective getters, the UTS loop's own abort check);
    the member then returns *cleanly* — its JOIN lets the tolerant wave
    finish fire, and the missing blob makes the coordinator abort the epoch.
    """
    try:
        blob = yield from drive_hook(body(ctx, epoch, tag))
    except DeadPlaceError:
        return
    ctx.send(0, CKPT_BOX, (attempt, ctx.here, blob))


def _member_restore(ctx, restore: Callable, committed_epoch: int, blob):
    """Roll this member back to the last committed epoch (``-1``: from scratch)."""
    if ctx.here != 0:
        # every place the coordinator knew dead was revived before this step
        # was spawned: lift the poison.  Place 0's member shares the
        # coordinator's death set, and a death it forgot would never be revived
        ctx.acknowledge_deaths()
    try:
        yield from drive_hook(restore(ctx, committed_epoch, blob))
    except DeadPlaceError:
        return


# -- the coordinator (place 0's main) -------------------------------------------------


def _wave(ctx, fn: Callable, args_by_place: Dict[int, tuple], name: str):
    """One tolerant FINISH_DENSE round of ``fn`` at every live place.

    Returns True iff nobody died: every place was spawned at, and no death
    was known when the finish fired.  A kill racing the spawns is caught and
    counts as a failed wave rather than a crashed coordinator.
    """
    failed = False
    with ctx.finish(Pragma.FINISH_DENSE, name=name) as f:
        f.tolerate_death = True
        dead = set(ctx.dead_places())
        for place in ctx.places():
            if place in dead:
                failed = True
                continue
            try:
                if place == ctx.here:
                    ctx.async_(fn, *args_by_place[place])
                else:
                    ctx.at_async(place, fn, *args_by_place[place])
            except DeadPlaceError:
                failed = True
    yield f.wait()
    return not failed and not ctx.dead_places()


def _collect_blobs(ctx, attempt: int) -> Dict[int, Any]:
    """Drain the checkpoint mailbox; keep this attempt's blobs, drop stale ones."""
    blobs: Dict[int, Any] = {}
    while True:
        ok, item = ctx.try_recv(CKPT_BOX)
        if not ok:
            return blobs
        blob_attempt, place, blob = item
        if blob_attempt == attempt:
            blobs[place] = blob


def _heal(ctx, restore: Callable, committed_epoch: int, committed: Dict[int, Any],
          stats: dict, max_attempts: int):
    """Revive every dead place, then roll the whole world back to committed."""
    for _ in range(max_attempts):
        for place in ctx.dead_places():
            ctx.revive(place)  # forgets exactly this death: place 0 is un-poisoned
            stats["revivals"] += 1
        args = {
            place: (restore, committed_epoch, committed.get(place))
            for place in ctx.places()
        }
        ok = yield from _wave(ctx, _member_restore, args, name="resil-restore")
        if ok:
            return
        # a kill landed mid-restore: revive again and re-run the wave
    raise ResilientError("recovery did not converge: members keep dying")


def run_resilient_epochs(ctx, epochs: int, body: Callable, restore: Callable,
                         max_attempts: int = DEFAULT_MAX_ATTEMPTS):
    """Drive ``epochs`` commit/abort rounds of ``body`` across every place.

    A generator for place 0's ``main``.  Returns ``(committed, stats)``:
    the per-place blobs of the last committed epoch and the run's recovery
    counters (``{"attempts", "commits", "aborts", "revivals"}``).
    """
    n_places = ctx.n_places
    committed: Dict[int, Any] = {}
    committed_epoch = -1
    stats = {"attempts": 0, "commits": 0, "aborts": 0, "revivals": 0}
    need_restore = True  # epoch -1: initialize every place from scratch
    attempt = 0
    failures = 0
    epoch = 0
    while epoch < epochs:
        if need_restore or ctx.dead_places():
            yield from _heal(ctx, restore, committed_epoch, committed,
                             stats, max_attempts)
            need_restore = False
        attempt += 1
        stats["attempts"] += 1
        tag = f"e{epoch}a{attempt}"
        args = {place: (body, epoch, tag, attempt) for place in ctx.places()}
        ok = yield from _wave(ctx, _member_epoch, args, name=f"resil-{tag}")
        blobs = _collect_blobs(ctx, attempt)
        if ok and len(blobs) == n_places:
            committed = blobs
            committed_epoch = epoch
            stats["commits"] += 1
            epoch += 1
            failures = 0
            continue
        # a member died (or its blob was lost with it): the epoch is torn
        stats["aborts"] += 1
        failures += 1
        need_restore = True
        if failures >= max_attempts:
            raise ResilientError(
                f"epoch {epoch} aborted {failures} times: giving up"
            )
    return committed, stats


# -- kernel hooks ---------------------------------------------------------------------
#
# Each kernel declares (restore, body, finalize, epochs):
#   restore(ctx, committed_epoch, blob, p) -- (re)build this place's state in
#       ctx.store; blob None means "before any epoch": initialize from scratch.
#   body(ctx, epoch, tag, p)               -- one epoch on the state; returns
#       the checkpoint blob (a *copy*: the blob must not alias live arrays).
#   finalize(committed, p, n_places)       -- the program result, computed
#       from the last committed blobs only.
# The hook shapes match repro.resilient.checkpoint.CheckpointHooks in spirit;
# state lives in ctx.store (a genuinely private per-process heap) instead of
# a shared ResilientStore.


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
    if kernel not in RESILIENT_PORTABLE:
        raise KernelError(
            f"kernel {kernel!r} has no checkpoint/restore hooks; "
            f"--resilient supports {sorted(RESILIENT_PORTABLE)}"
        )
    p = program_defaults(kernel)
    unknown = set(params) - set(p)
    if unknown:
        raise KernelError(
            f"unknown parameter(s) {sorted(unknown)} for portable kernel "
            f"{kernel!r}; accepted: {sorted(p)}"
        )
    p.update(params)
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


__all__ = [
    "CKPT_BOX",
    "RESILIENT_PORTABLE",
    "build_resilient_program",
    "run_resilient_epochs",
]
