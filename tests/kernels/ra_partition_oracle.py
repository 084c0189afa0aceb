"""The RandomAccess member body that ``programs.ra_worker`` replaced — kept
verbatim as the memory oracle for the values-only exchange.

It ships an ``(int64 index, uint64 value)`` pair per update, so every batch
and the exchange are twice the size, and it builds three full-length
temporaries (``values & mask``, its ``int64`` copy and ``index * P // size``)
beside the values.  Its owner rule ``index * P // size`` disagrees with the
table bounds ``size * q // P`` wherever ``P`` does not divide ``size``, so it
is only an oracle where it divides (the memory budget's 2 places).
"""

import hashlib

import numpy as np

from repro.harness.results import checksum_bytes
from repro.kernels.portable.programs import _TICK, _gather


def ra_worker_pairs(ctx, p: dict):
    from repro.kernels.randomaccess.hpcc_rng import stream_slice_fast

    me, P, team = ctx.here, ctx.n_places, p["team"]
    size = 1 << p["log2_table"]
    lo, hi = size * me // P, size * (me + 1) // P
    table = np.arange(lo, hi, dtype=np.uint64)
    updates = p["updates_per_place"]
    yield ctx.compute(seconds=_TICK)
    values = stream_slice_fast(me * updates, updates)
    index = (values & np.uint64(size - 1)).astype(np.int64)
    owner = index * P // size
    # one bulk exchange: a (possibly empty) batch for every place
    batches = [(index[owner == q], values[owner == q]) for q in range(P)]
    del values, index, owner  # the batches are copies: free these across the exchange
    for idx, val in (yield team.alltoall(ctx, batches)):
        np.bitwise_xor.at(table, idx - lo, val)  # .at: duplicate indices all land
    digests = yield from _gather(ctx, "ra", hashlib.sha256(table).digest())
    if me == 0:
        ctx.store["portable:result"] = {
            "checksum": checksum_bytes(*(digests[place] for place in sorted(digests))),
            "table_size": size,
            "updates": updates * P,
        }
