"""Portable UTS: interval work stealing over plain messages.

The tree and its compact interval representation come straight from
:mod:`repro.kernels.uts.tree` — a :class:`~repro.kernels.uts.tree.UtsBag` is
plain picklable data, so stolen loot ships over a real socket unchanged.
What this module adds is a backend-blind balancing protocol (the simulator's
GLB fabric passes live objects through its transport, so it cannot cross a
process boundary):

* every place runs one worker activity that alternates between draining its
  bag one chunk at a time and polling a control mailbox;
* idle places steal round-robin: a ``steal`` request is always answered,
  with ``loot`` (half of every interval — the paper's refined policy) or
  ``empty``; a victim never gives away its last piece, which is what keeps
  two idle places from trading it forever;
* termination is a count-based double wave: a token circulates the ring
  accumulating (loot sent, loot received, everyone idle); the root declares
  termination after two consecutive waves that are balanced, all-idle, and
  identical — at that point no loot can be in flight.  The root then
  broadcasts ``stop`` and gathers per-place node counts.

The total node count is invariant under any steal interleaving (intervals
are conserved, only ownership moves), so both backends — and the paper's GLB
runs with the same tree parameters — agree on the count and therefore on the
checksum.
"""

from __future__ import annotations

from repro.errors import DeadPlaceError
from repro.harness.results import checksum_bytes
from repro.kernels.uts.tree import UtsBag, UtsParams
from repro.runtime.finish.pragmas import Pragma

#: nodes visited between mailbox polls (also the cooperative-yield grain)
CHUNK = 512

#: idle backoff between steal rounds: virtual on the simulator, real
#: (sub-millisecond) on procs — keeps an idle place from hammering the wires
_IDLE_BACKOFF = 5e-4


def spmd(ctx, worker, params: dict, pragma: Pragma = Pragma.FINISH_SPMD):
    """Run ``worker(ctx, params)`` once at every place under ``pragma``.

    The paper's dominant pattern: one remote activity per place, no stray
    subactivities outside nested finishes.  Use ``yield from spmd(...)``.
    """
    with ctx.finish(pragma) as f:
        for place in ctx.places():
            if place == ctx.here:
                ctx.async_(worker, params)
            else:
                ctx.at_async(place, worker, params)
    yield f.wait()
    return ctx.store.pop("portable:result")


def _gather(ctx, tag: str, value):
    """Collect every place's ``value`` at place 0: returns ``{place: value}``
    there (None elsewhere), independent of arrival order."""
    box = f"ga:{tag}"
    if ctx.here != 0:
        ctx.send(0, box, (ctx.here, value))
        return None
    out = {0: value}
    for _ in range(ctx.n_places - 1):
        sender, item = yield ctx.recv(box)
        out[sender] = item
    return out


def uts_loop(ctx, p: dict, ctl_box: str = "uts:ctl", abort_on_death: bool = False):
    """The drain/steal/terminate loop; returns this place's processed count.

    Factored out of :func:`uts_worker` so the resilient retry-from-scratch
    body (:mod:`repro.kernels.portable.resilient`) can run the identical
    protocol on an attempt-scoped control mailbox (``ctl_box``) — stale
    steals and termination tokens from an aborted attempt land in boxes the
    retry never reads.  With ``abort_on_death`` the loop raises
    :class:`DeadPlaceError` as soon as a peer death is known, instead of
    idling forever on steal replies or termination tokens that cannot come.
    """
    me, P = ctx.here, ctx.n_places
    params = UtsParams(
        b0=p["b0"], depth=p["depth"], seed=p["seed"], rng_mode=p["rng_mode"]
    )
    bag = UtsBag.root(params) if me == 0 else UtsBag(params)
    processed = 0
    loot_sent = 0
    loot_recv = 0
    awaiting_reply = False
    victim_offset = 1
    held_token = None
    prev_wave = None
    stop = False
    # single-place runs need no protocol at all
    if P == 1:
        while not bag.is_empty():
            processed += bag.process(CHUNK)
            yield ctx.compute(seconds=_IDLE_BACKOFF)
        return processed

    if me == 0:
        held_token = (0, 0, True)  # the root injects the first wave when idle

    while not stop:
        if abort_on_death:
            dead = ctx.dead_places()
            if dead:
                raise DeadPlaceError(
                    dead[0], detected_by=f"uts worker @{me}",
                    detail="peer died mid-attempt",
                )
        # 1. drain control messages
        while True:
            ok, msg = ctx.try_recv(ctl_box)
            if not ok:
                break
            kind = msg[0]
            if kind == "steal":
                thief = msg[1]
                loot = None if bag.is_empty() else bag.split()
                if loot is not None and bag.is_empty():
                    # never hand over the last piece: a thief that gets it
                    # serves the next steal before it works (step 1 runs
                    # before step 2), so two idle places would pass it back
                    # and forth forever
                    bag.merge(loot)
                    loot = None
                if loot is None:
                    ctx.send(thief, ctl_box, ("empty",))
                else:
                    loot_sent += 1
                    ctx.send(
                        thief, ctl_box,
                        ("loot", loot.intervals, loot._bootstrap),
                    )
            elif kind == "loot":
                loot_recv += 1
                awaiting_reply = False
                stolen = UtsBag(params, intervals=msg[1], bootstrap_nodes=msg[2])
                bag.merge(stolen)
            elif kind == "empty":
                awaiting_reply = False
            elif kind == "token":
                held_token = msg[1]
            elif kind == "stop":
                stop = True
        if stop:
            break
        # 2. work if there is any
        if not bag.is_empty():
            processed += bag.process(CHUNK)
            yield ctx.compute(seconds=_IDLE_BACKOFF)
            continue
        # 3. idle: advance the termination wave if we hold the token
        if held_token is not None:
            sent_acc, recv_acc, all_idle = held_token
            held_token = None
            if me == 0:
                wave = (sent_acc, recv_acc, all_idle)
                balanced = all_idle and sent_acc == recv_acc
                if balanced and wave == prev_wave:
                    for q in range(1, P):
                        ctx.send(q, ctl_box, ("stop",))
                    stop = True
                    break
                prev_wave = wave if balanced else None
                ctx.send(1, ctl_box, ("token", (loot_sent, loot_recv, True)))
            else:
                token = (sent_acc + loot_sent, recv_acc + loot_recv, all_idle)
                ctx.send((me + 1) % P, ctl_box, ("token", token))
        # 4. idle: try to steal (one outstanding request at a time)
        if not awaiting_reply:
            victim = (me + victim_offset) % P
            victim_offset = victim_offset % (P - 1) + 1
            if victim != me:
                awaiting_reply = True
                ctx.send(victim, ctl_box, ("steal", me))
        yield ctx.sleep(_IDLE_BACKOFF)

    return processed


def uts_worker(ctx, p: dict):
    processed = yield from uts_loop(ctx, p)
    counts = yield from _gather(ctx, "uts", processed)
    if ctx.here == 0:
        ctx.store["portable:result"] = _result(sum(counts.values()), per_place=counts)


def _result(total: int, per_place=None) -> dict:
    return {
        "checksum": checksum_bytes(str(total).encode()),
        "nodes": total,
        # underscore prefix: per-run diagnostic, excluded from conformance —
        # steal interleavings (and thus work placement) are backend-variant
        "_per_place": per_place or {0: total},
    }


def uts_main(ctx, **params):
    # the paper's refined configuration runs UTS under FINISH_DENSE
    return (yield from spmd(ctx, uts_worker, params, pragma=Pragma.FINISH_DENSE))
