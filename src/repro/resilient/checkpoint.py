"""Globally consistent checkpoint epochs cut at ``finish`` boundaries.

:func:`run_resilient_epochs` is the one epoch coordinator, on both backends.
It runs in place 0's ``main`` and drives a computation as a sequence of
*epochs* (K-Means iterations, Stream rounds, one UTS traversal).  Every step
goes through ``ctx`` with arguments that pickle, so the same code runs on the
simulator and on the one-OS-process-per-place backend, where a place death is
a SIGKILLed process and ``ctx.revive`` forks a fresh one.

The moving parts:

* each epoch attempt is one ``tolerate_death`` FINISH_DENSE wave of
  :func:`_member_epoch` activities, so a mid-epoch kill surfaces as an
  aborted epoch, never a hung or failed run;
* a member runs the kernel's ``body(ctx, epoch, tag)`` and ships the returned
  checkpoint blob to place 0's ``resil:ckpt`` mailbox *before* its JOIN: when
  the finish fires, every surviving member's blob has already arrived;
* collective traffic inside an attempt uses an **attempt-scoped tag**
  (``e{epoch}a{attempt}``): messages from an aborted attempt land in
  mailboxes the retry never reads, and a revived place's fresh collective
  counters line up with the survivors' by construction;
* an epoch commits only when nobody died and the full blob set arrived; the
  committed blobs, keyed by owner place, are what a restore reads;
* on an abort the coordinator revives dead places, rolls *every* member back
  with ``restore(ctx, committed_epoch, blob)`` (survivors may have advanced
  state that no longer matches; ``blob`` is None before the first commit),
  and re-runs the same epoch.  Kernel bodies are deterministic given restored
  state, so the retry commits byte-identical blobs and the final result
  equals the fault-free run's exactly.

Place 0 hosts the coordinator; its death stays unrecoverable, matching
Resilient X10's distinguished-place semantics.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, Dict

from repro.errors import DeadPlaceError, ResilientError
from repro.runtime.finish.pragmas import Pragma

#: place-0 mailbox checkpoint blobs are shipped to, as (attempt, place, blob)
CKPT_BOX = "resil:ckpt"

#: restore-then-retry rounds before the run gives up with ResilientError
DEFAULT_MAX_ATTEMPTS = 8


def drive_hook(result):
    """Run a hook that may be a generator or a plain function."""
    if type(result) is GeneratorType:
        return (yield from result)
    return result


def _trace_epoch(ctx, name: str, epoch: int) -> None:
    tracer = ctx.rt.obs.trace
    if tracer.enabled:
        tracer.instant(name, "resilient", ctx.here, ctx.now, scope="epochs", epoch=epoch)


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
        ctx.rt.obs.metrics.counter("resilient.member_aborts").inc()
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
        ctx.rt.obs.metrics.counter("resilient.member_aborts").inc()
        return
    _trace_epoch(ctx, "resilient.restore", committed_epoch)


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


def release_members(ctx, fn: Callable, *args):
    """After the last commit, one tolerant wave of ``fn(ctx, *args)`` at every
    live place to free the members' state.  The result is already built from
    the committed blobs, so a place that dies meanwhile costs nothing: it
    has no state left to free."""
    yield from _wave(ctx, fn, {place: args for place in ctx.places()}, name="resil-release")


def run_resilient_epochs(ctx, epochs: int, body: Callable, restore: Callable,
                         max_attempts: int = DEFAULT_MAX_ATTEMPTS):
    """Drive ``epochs`` commit/abort rounds of ``body`` across every place.

    A generator for place 0's ``main``.  ``body(ctx, epoch, tag)`` returns
    the member's checkpoint blob (a *copy*: it must not alias live state);
    ``restore(ctx, committed_epoch, blob)`` rebuilds the member's state.
    Either may be a generator.  Returns ``(committed, stats)``: the per-place
    blobs of the last committed epoch and the run's recovery counters
    (``{"attempts", "commits", "aborts", "revivals"}``).
    """
    metrics = ctx.rt.obs.metrics
    c_commits = metrics.counter("resilient.epochs_committed")
    c_aborts = metrics.counter("resilient.epochs_aborted")
    c_recoveries = metrics.counter("resilient.recoveries")
    committed: Dict[int, Any] = {}
    committed_epoch = -1
    stats = {"attempts": 0, "commits": 0, "aborts": 0, "revivals": 0}
    need_restore = True  # epoch -1: initialize every place from scratch
    attempt = 0
    failures = 0
    epoch = 0
    while epoch < epochs:
        if need_restore or ctx.dead_places():
            if attempt:  # the first restore initializes; later ones recover
                c_recoveries.inc()
            yield from _heal(ctx, restore, committed_epoch, committed,
                             stats, max_attempts)
            need_restore = False
        attempt += 1
        stats["attempts"] += 1
        tag = f"e{epoch}a{attempt}"
        args = {place: (body, epoch, tag, attempt) for place in ctx.places()}
        ok = yield from _wave(ctx, _member_epoch, args, name=f"resil-{tag}")
        blobs = _collect_blobs(ctx, attempt)
        if ok and len(blobs) == ctx.n_places:
            committed = blobs
            committed_epoch = epoch
            stats["commits"] += 1
            c_commits.inc()
            _trace_epoch(ctx, "resilient.commit", epoch)
            epoch += 1
            failures = 0
            continue
        # a member died (or its blob was lost with it): the epoch is torn
        stats["aborts"] += 1
        c_aborts.inc()
        _trace_epoch(ctx, "resilient.abort", epoch)
        failures += 1
        need_restore = True
        if failures >= max_attempts:
            raise ResilientError(
                f"epoch {epoch} aborted {failures} times: giving up"
            )
    return committed, stats
