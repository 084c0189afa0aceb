"""The HPCC RandomAccess pseudo-random stream.

The update stream is ``a(n+1) = (a(n) << 1) XOR (POLY if msb(a(n)) else 0)``
over GF(2), with ``a(0) = 1`` — the linear-feedback sequence from the HPCC
reference implementation.  ``hpcc_starts(n)`` jumps to the n-th element in
O(log n) using GF(2) matrix squaring, which is what lets every place generate
its own slice of the global stream independently.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

#: the HPCC primitive polynomial
POLY = np.uint64(0x0000000000000007)
_PERIOD = 1317624576693539401  # the sequence period used by HPCC
_ONE, _TOP = np.uint64(1), np.uint64(63)
_BITS = np.arange(64, dtype=np.uint64)


def hpcc_advance(a: np.ndarray) -> np.ndarray:
    """One LFSR step for a vector of states (vectorized, in place safe)."""
    a = np.asarray(a, dtype=np.uint64)
    return (a << _ONE) ^ ((a >> _TOP) * POLY)


def _step(a: np.uint64) -> np.uint64:
    msb = np.uint64(int(a) >> 63)
    return np.uint64(((int(a) << 1) ^ (int(msb) * int(POLY))) & 0xFFFFFFFFFFFFFFFF)


def _squaring_table() -> np.ndarray:
    # a state is a polynomial in x modulo POLY and a(n) = x^n; squaring maps
    # x^j to x^(2j), and is linear over GF(2), so these 64 images define it
    table = np.empty(64, dtype=np.uint64)
    temp = np.uint64(1)
    for j in range(64):
        table[j] = temp
        temp = _step(_step(temp))
    return table


_SQUARE = _squaring_table()


def hpcc_starts(n):
    """The n-th element of the HPCC stream (HPCC_starts from the reference).

    Square-and-multiply on ``x^n`` over GF(2): one squaring per bit of ``n``
    (the XOR of ``_SQUARE[j]`` over the set bits ``j`` of the state) and one
    LFSR step where that bit is set.  ``n`` may be an array, in which case
    every element is jumped to at once and the result is a ``uint64`` array.
    """
    # reduced as Python ints: exact for any magnitude or sign of ``n``
    n = np.asarray(np.asarray(n, dtype=object) % _PERIOD, dtype=np.uint64)
    ran = np.ones(n.shape, dtype=np.uint64)
    for i in range(int(n.max(initial=0)).bit_length() - 1, -1, -1):
        set_bits = (ran[..., None] >> _BITS) & _ONE
        ran = np.bitwise_xor.reduce(set_bits * _SQUARE, axis=-1)
        ran = np.where((n >> np.uint64(i)) & _ONE, hpcc_advance(ran), ran)
    return ran[()]


def stream_slice(start_index: int, count: int) -> np.ndarray:
    """``count`` consecutive stream elements beginning at ``start_index``
    (one scalar step each: the oracle for :func:`stream_slice_fast`)."""
    out = np.empty(count, dtype=np.uint64)
    if count == 0:
        return out
    a = hpcc_starts(start_index)
    for i in range(count):
        a = _step(a)
        out[i] = a
    return out


def stream_slice_fast(start_index: int, count: int, batch: Optional[int] = None) -> np.ndarray:
    """Vectorized slice generation: advance a whole batch of lanes at once.

    Jumps ``batch`` lanes (default: about the square root of ``count``, which
    balances the jump against the advance) to stride intervals with one
    :func:`hpcc_starts`, then advances all lanes together, one row of the
    step-by-lane table per step — identical output to :func:`stream_slice`.
    """
    if count <= 0:
        return np.empty(0, dtype=np.uint64)
    lanes = min(math.isqrt(count - 1) + 1 if batch is None else batch, count)
    per_lane = -(-count // lanes)
    state = hpcc_starts(int(start_index) % _PERIOD + per_lane * np.arange(lanes))
    table = np.empty((per_lane, lanes), dtype=np.uint64)  # one contiguous row per step
    for k in range(per_lane):
        state = table[k] = hpcc_advance(state)
    return table.T.reshape(-1)[:count]  # lane-major order
