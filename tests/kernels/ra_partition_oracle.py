"""The RandomAccess member body that shipped pairs through one
``team.alltoall`` — kept as the memory oracle for
:func:`repro.kernels.randomaccess.ra.ra_body`, which sends values only.

It ships an ``(int64 index, uint64 value)`` pair per update, so every batch
and the exchange are twice the size, and it builds three full-length
temporaries (``values & mask``, its ``int64`` copy and ``index * P // size``)
beside the values.  Its owner rule ``index * P // size`` disagrees with the
table bounds ``size * q // P`` wherever ``P`` does not divide ``size``, so it
is only an oracle where it divides (the memory budget's 2 places).
"""

import hashlib

import numpy as np

from repro.kernels.randomaccess.hpcc_rng import stream_slice_fast


def ra_body_pairs(ctx, p: dict, team):
    rank, P, size = team.rank(ctx.here), team.size, p["size"]
    lo, hi = p["bounds"][rank], p["bounds"][rank + 1]
    table = np.arange(lo, hi, dtype=np.uint64)
    updates = p["updates"]
    values = stream_slice_fast(rank * updates, updates)
    index = (values & np.uint64(size - 1)).astype(np.int64)
    owner = index * P // size
    # one bulk exchange: a (possibly empty) batch for every member
    batches = [(index[owner == q], values[owner == q]) for q in range(P)]
    del values, index, owner  # the batches are copies: free these across the exchange
    for idx, val in (yield team.alltoall(ctx, batches)):
        np.bitwise_xor.at(table, idx - lo, val)  # .at: duplicate indices all land
    return hashlib.sha256(table).digest(), None
