"""Global RandomAccess (paper Section 5.1).

The table is distributed across all places; any update is likely to target a
remote place.  The implementation takes advantage of congruent memory
allocation — each member's part of the table is a segment backed by large
pages at the same address in every place (``ctx.congruent``) — and uses the
Torrent's "GUPS" feature for the remote XOR updates (``ctx.gups``).

One program, :func:`ra_main`, on both backends, at HPCC's rules: the table
holds ``2**log2_table`` slots, an update is one 64-bit value of the HPCC
stream whose low bits are its slot, and member ``q`` of ``P`` owns slots
``size*q//P`` up to ``size*(q+1)//P``.  Members allocate, meet at a barrier
(no update may land before its table exists), send their updates batch by
batch under a FINISH_DENSE, meet again (every update has landed) and send
home their part's digest.

Verification follows HPCC: applying the same update stream twice returns the
table to its initial state (XOR is an involution and commutes), so the error
count after a double run must be zero.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from repro.errors import KernelError
from repro.harness.results import KernelResult, checksum_bytes
from repro.kernels.randomaccess.hpcc_rng import stream_slice_fast
from repro.runtime.broadcast import broadcast_gather
from repro.runtime.finish.pragmas import Pragma

#: the program's small conformance-scale problem; ``batch=None`` sends each
#: pass in one batch, one remote XOR an owner
PROGRAM_DEFAULTS = {"log2_table": 12, "updates_per_place": 2048, "batch": None,
                    "large_pages": True, "materialize": True, "verify": False,
                    "model_updates_factor": 1.0}


def check_sizes(log2_table: int, updates_per_place: int, batch: Optional[int] = None) -> None:
    """Refuse a run whose table or update stream cannot exist: a slot is the
    low ``log2_table`` bits of a 64-bit update value."""
    if not 0 <= log2_table <= 64 or updates_per_place < 0:
        raise KernelError(
            f"RandomAccess needs 0 <= log2_table <= 64 and updates_per_place >= 0, "
            f"got log2_table={log2_table}, updates_per_place={updates_per_place}"
        )
    if batch is not None and batch < 1:
        raise KernelError(f"RandomAccess needs batch >= 1, got {batch}")


def ra_params(members: int, log2_table: int, updates_per_place: int,
              batch: Optional[int] = None, large_pages: bool = True, materialize: bool = True,
              verify: bool = False, model_updates_factor: float = 1.0) -> dict:
    """The body's parameters over ``members`` members, every size checked here."""
    check_sizes(log2_table, updates_per_place, batch)
    size = 1 << log2_table
    return {"size": size, "bounds": [size * q // members for q in range(members + 1)],
            "updates": updates_per_place, "batch": batch or max(1, updates_per_place),
            "passes": 2 if verify else 1, "large_pages": large_pages,
            "materialize": materialize, "scale": model_updates_factor}


def ra_body(ctx, p: dict, team):
    """A member's run: its part of the table, its slice of the update stream;
    returns its part's digest and, after two passes, how many of its slots
    differ from the start (both None for a model-only table)."""
    rank, bounds, key = team.rank(ctx.here), p["bounds"], ("ra", team)
    lo, hi = bounds[rank], bounds[rank + 1]
    table = ctx.congruent(key, hi - lo, p["large_pages"], p["materialize"])
    if table.materialized:
        table.data[:] = np.arange(lo, hi, dtype=np.uint64)
    yield team.barrier(ctx)  # every part exists before an update can land
    n, batch, scale = p["updates"], p["batch"], p["scale"]
    bw = ctx.rt.topology.config.place_stream_bandwidth
    for _ in range(p["passes"]):
        stream = stream_slice_fast(rank * n, n)
        with ctx.finish(Pragma.FINISH_DENSE) as f:
            for start in range(0, n, batch):
                count = min(batch, n - start)
                # local index generation: one pass over the batch
                yield ctx.compute(mem_bytes=16 * count * scale, mem_bw=bw)
                ctx.gups(key, team.members, bounds, stream[start:start + count], scale)
        del stream  # the batches in flight are copies
        yield f.wait()
    yield team.barrier(ctx)  # every member's updates have landed
    table = ctx.store.pop(key)
    if not table.materialized:
        return None, None
    errors = None
    if p["passes"] == 2:
        errors = int(np.count_nonzero(table.data != np.arange(lo, hi, dtype=np.uint64)))
    return hashlib.sha256(table.data).digest(), errors


def ra_main(ctx, group=None, **params):
    """RandomAccess over ``group`` (default: every place), run at place 0, a
    member or not."""
    team = ctx.team(group or ctx.places())
    p = ra_params(team.size, **params)
    parts = yield from broadcast_gather(ctx, team, ra_body, p, team)
    digests = [digest for digest, _ in parts]
    errors = None if parts[0][1] is None else sum(e for _, e in parts)
    octant_of = ctx.rt.topology.octant_of
    return {"checksum": None if digests[0] is None else checksum_bytes(*digests),
            "table_size": p["size"], "updates": p["updates"] * team.size,
            "hosts": len({octant_of(q) for q in team.members}),
            "errors": errors, "verified": None if errors is None else errors == 0}


def ra_modelled(places: int, config, table_words_per_place: int = 1 << 28,
                updates_per_place: int = 8192, batch: int = 1024, large_pages: bool = True,
                materialize: bool = False, verify: bool = True,
                model_updates_factor: Optional[float] = None) -> dict:
    """``simulate``'s keywords: a 2 GB model-only table a place (a power of
    two of words), whose ``table_words_per_place * places`` words map to the
    largest power of two of slots at most that.  Each update of the sampled
    slice stands for ``model_updates_factor`` of the full 4x-table stream
    (message counts stay, engine occupancy and wire bytes scale); a
    materialized table is verified unless ``verify=False``."""
    t = table_words_per_place
    if t < 1 or t & (t - 1):
        raise KernelError("table size per place must be a power of two")
    factor = 4 * t / updates_per_place if model_updates_factor is None else model_updates_factor
    return {"log2_table": (t * places).bit_length() - 1, "updates_per_place": updates_per_place,
            "batch": batch, "large_pages": large_pages, "materialize": materialize,
            "verify": verify and materialize, "model_updates_factor": factor}


def ra_report(result: dict, params: dict, places: int, sim_time: float) -> KernelResult:
    """Modelled updates a second, and per host: the paper reports Gup/s per host."""
    passes = 2 if params["verify"] else 1
    updates = params["updates_per_place"] * places * passes * params["model_updates_factor"]
    gups = updates / sim_time
    hosts = result["hosts"]
    return KernelResult.of("randomaccess", result, places, sim_time, gups, "up/s",
                           per_core=gups / hosts, errors=result["errors"], updates=updates,
                           hosts=hosts)
