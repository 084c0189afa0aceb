"""Program-level collectives for portable APGAS programs.

Portable programs may only use the picklable ``ctx`` subset (spawns of
module-level functions, plain-data messages, ``ctx.store``), so these
collectives are built entirely out of mailbox sends — the same protocol text
then runs on the simulator's in-process transport and on the procs backend's
real sockets.

Determinism rules (the conformance suite checks results bit-for-bit):

* every mailbox name carries a per-place sequence number from ``ctx.store``,
  so repeated collectives never cross wires (all places must execute the
  same collectives in the same order — the SPMD discipline);
* messages are tagged with the sender, and receivers pull specific senders
  out of a reorder buffer or key them by sender, so arrival order (which
  differs between backends) never reaches program state.
"""

from __future__ import annotations

from typing import Any


def _seq(ctx, tag: str) -> int:
    """Per-place sequence number for collective ``tag`` (via ``ctx.store``)."""
    key = f"_collseq:{tag}"
    n = ctx.store.get(key, 0)
    ctx.store[key] = n + 1
    return n


def recv_from(ctx, box: str, want: int):
    """Receive the message ``(want, value)`` from mailbox ``box``.

    Messages from other senders that arrive first are parked in a reorder
    buffer in ``ctx.store``.  Use as ``value = yield from recv_from(...)``.
    """
    pending = ctx.store.setdefault(f"_pend:{box}", {})
    while want not in pending:
        sender, value = yield ctx.recv(box)
        pending[sender] = value
    return pending.pop(want)


def bcast(ctx, tag: str, value: Any = None, root: int = 0):
    """Binomial-tree broadcast of ``value`` from ``root``; returns it everywhere.

    Use as ``value = yield from bcast(ctx, "tag", value)``; non-roots pass
    any placeholder.
    """
    P, me = ctx.n_places, ctx.here
    box = f"bc:{tag}:{_seq(ctx, 'bc:' + tag)}"
    rel = (me - root) % P
    if rel != 0:
        # the sender is rel with its highest bit cleared; exactly one message
        value = yield from recv_from(ctx, box, (rel ^ (1 << (rel.bit_length() - 1))))
    mask = 1
    while mask < P:
        if rel < mask and rel + mask < P:
            ctx.send((rel + mask + root) % P, box, (rel, value))
        mask <<= 1
    return value


def gather(ctx, tag: str, value: Any, root: int = 0):
    """Collect every place's ``value`` at ``root``: returns ``{place: value}``
    there (None elsewhere), independent of arrival order."""
    P, me = ctx.n_places, ctx.here
    box = f"ga:{tag}:{_seq(ctx, 'ga:' + tag)}"
    if me != root:
        ctx.send(root, box, (me, value))
        return None
    out = {me: value}
    for _ in range(P - 1):
        sender, item = yield ctx.recv(box)
        out[sender] = item
    return out
