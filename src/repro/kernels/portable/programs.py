"""The portable copy of RandomAccess (UTS has its own module,
:mod:`repro.kernels.portable.uts_program`; Stream, FFT, HPL, K-Means, BC and
Smith-Waterman are one program on both backends, beside their numeric cores).

Every program here is *backend-blind*: it uses only the picklable ``ctx``
subset (module-level worker functions, plain-data messages, ``ctx.store``)
plus ``ctx.team``, so the identical program text runs on the discrete-event
simulator and on real OS processes.
The numerical cores are imported from the corresponding simulator kernels —
the physics is shared, only the orchestration is rewritten portably.

Determinism contract (what the conformance suite asserts): for a fixed seed
and place count, the returned result — including every floating-point bit of
the checksum — is identical on every backend.  Results are combined at the
root in rank order, never in arrival order (see :func:`_gather`).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import KernelError
from repro.harness.results import checksum_bytes
from repro.runtime.finish.pragmas import Pragma

#: nominal per-chunk compute charge for the simulator backend (the procs
#: backend ignores it: there, the real CPU time is the real cost)
_TICK = 1e-6


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


# -- RandomAccess ---------------------------------------------------------------------


def ra_check_sizes(log2_table: int, updates_per_place: int) -> None:
    """Refuse a RandomAccess run whose table or update stream cannot exist: a
    slot is the low ``log2_table`` bits of a 64-bit update value."""
    if not 0 <= log2_table <= 64 or updates_per_place < 0:
        raise KernelError(
            f"RandomAccess needs 0 <= log2_table <= 64 and updates_per_place >= 0, "
            f"got log2_table={log2_table}, updates_per_place={updates_per_place}"
        )


def ra_worker(ctx, p: dict):
    """HPCC's update stream: an update is one 64-bit value, its table slot the
    value's low bits, and member ``q`` owns slots ``size*q//P`` up to
    ``size*(q+1)//P``; so the exchange ships values only, 8 bytes an update."""
    from repro.kernels.randomaccess.hpcc_rng import stream_slice_fast

    me, P, team = ctx.here, ctx.n_places, p["team"]
    size = 1 << p["log2_table"]
    mask = np.uint64(size - 1)
    bounds = [size * q // P for q in range(P + 1)]
    lo = bounds[me]
    table = np.arange(lo, bounds[me + 1], dtype=np.uint64)
    updates = p["updates_per_place"]
    yield ctx.compute(seconds=_TICK)
    values = stream_slice_fast(me * updates, updates)
    slot = values & mask
    # one bulk exchange: a (possibly empty) batch of values for every member
    batches = [values[(slot >= bounds[q]) & (slot < bounds[q + 1])] for q in range(P)]
    del values, slot  # the batches are copies: free these across the exchange
    for val in (yield team.alltoall(ctx, batches)):
        index = val & mask
        index -= np.uint64(lo)
        np.bitwise_xor.at(table, index.view(np.int64), val)  # .at: duplicate slots all land
    digests = yield from _gather(ctx, "ra", hashlib.sha256(table).digest())
    if me == 0:
        ctx.store["portable:result"] = {
            "checksum": checksum_bytes(*(digests[place] for place in sorted(digests))),
            "table_size": size,
            "updates": updates * P,
        }


def ra_main(ctx, **params):
    # the paper's pragma for RandomAccess: an irregular communication graph
    params["team"] = ctx.team(ctx.places())
    return (yield from spmd(ctx, ra_worker, params, pragma=Pragma.FINISH_DENSE))
