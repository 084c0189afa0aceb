"""Splittable random number generators for UTS tree generation.

The original UTS derives each node's state by SHA-1 hashing its parent's
state and its child index; the node's branching factor is a geometric draw
from that state.  :class:`Sha1Rng` is that faithful construction.
:class:`SplitMixRng` is the documented substitution for large trees: a
SplitMix64-style counter hash, fully vectorized with NumPy — a different hash
function but the same splittable structure and the same geometric branching
statistics (validated against the SHA-1 mode by tests).

The geometric law: with branching parameter ``b0``, a node at depth below the
cut-off has ``floor(log(u) / log(q))`` children where ``q = b0/(b0+1)`` and
``u`` is the node's uniform draw — expected value ~= ``b0``, long right tail
(the source of the imbalance), expected tree size ~= ``b0**d``.

Each generator has two faces.  ``child_states`` and ``num_children`` are the
array forms: they *define* the hash and the law, and the sequential oracle
uses nothing else.  ``children`` is what the tree traversal calls, one sibling
interval (a handful of nodes) at a time: for SplitMix it hashes in exact
modular Python-int arithmetic and draws the branching factor by bisecting a
table of integer thresholds that was itself bisected out of ``num_children``,
so there is no second formula for the law and no NumPy dispatch per interval.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from bisect import bisect_right
from typing import Union

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
#: a state's uniform draw is its top 53 bits (what a float64 holds exactly)
_DRAW_BITS = 53
_DRAW_SHIFT = 64 - _DRAW_BITS


class SplitMixRng:
    """SplitMix64-style splittable RNG: states are 64-bit integers."""

    name = "splitmix"

    def root_state(self, seed: int) -> int:
        # the root is child 0 of the seed taken as a state
        return int(self.child_states(seed & _MASK, 0, 1)[0])

    def child_states(self, parent_state: int, lo: int, hi: int) -> np.ndarray:
        indices = np.arange(lo + 1, hi + 1, dtype=np.uint64)
        return _mix(np.uint64(parent_state) + indices * np.uint64(_GAMMA))

    @staticmethod
    def num_children(states, q: float) -> np.ndarray:
        u = _to_unit(states)
        return np.floor(np.log(u) / math.log(q)).astype(np.int64)

    def children(self, parent_state: int, lo: int, hi: int, q: float) -> list:
        """``(state, branching factor)`` of children ``lo..hi-1``, all ints."""
        thresholds = _thresholds(q)
        most = len(thresholds)
        out = [None] * (hi - lo)
        for i in range(hi - lo):
            # _mix on one Python int, reduced modulo 2**64 after each multiply
            z = (parent_state + (lo + 1 + i) * _GAMMA) & _MASK
            z = ((z ^ (z >> 30)) * _MIX1) & _MASK
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK
            z ^= z >> 31
            out[i] = (z, most - bisect_right(thresholds, z >> _DRAW_SHIFT))
        return out


class Sha1Rng:
    """The faithful UTS construction: 20-byte SHA-1 states."""

    name = "sha1"

    def root_state(self, seed: int) -> bytes:
        return hashlib.sha1(struct.pack(">q", seed)).digest()

    def child_states(self, parent_state: bytes, lo: int, hi: int) -> list[bytes]:
        return [
            hashlib.sha1(parent_state + struct.pack(">i", i)).digest()
            for i in range(lo, hi)
        ]

    def num_children(self, states, q: float) -> np.ndarray:
        out = np.empty(len(states), dtype=np.int64)
        for idx, digest in enumerate(states):
            word = struct.unpack(">Q", digest[:8])[0]
            u = max(word, 1) / 2.0**64
            out[idx] = int(math.floor(math.log(u) / math.log(q)))
        return out

    def children(self, parent_state: bytes, lo: int, hi: int, q: float) -> list:
        """``(state, branching factor)`` of children ``lo..hi-1``."""
        states = self.child_states(parent_state, lo, hi)
        return list(zip(states, self.num_children(states, q).tolist()))


_RNGS = {"splitmix": SplitMixRng, "sha1": Sha1Rng}
RNG_MODES = tuple(_RNGS)


def make_rng(mode: str) -> Union[SplitMixRng, Sha1Rng]:
    if mode not in _RNGS:
        raise ValueError(f"unknown UTS rng mode {mode!r}; use 'splitmix' or 'sha1'")
    return _RNGS[mode]()


def _mix(z: np.ndarray) -> np.ndarray:
    # uint64 arrays wrap modulo 2**64 silently, which is the arithmetic intended
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _to_unit(states) -> np.ndarray:
    """Map uint64 states to (0, 1], avoiding log(0)."""
    draws = np.asarray(states, dtype=np.uint64) >> np.uint64(_DRAW_SHIFT)
    u = draws.astype(np.float64) * (1.0 / 2**_DRAW_BITS)
    return np.maximum(u, 1.0 / 2**_DRAW_BITS)


@functools.lru_cache(maxsize=16)
def _thresholds(q: float) -> tuple:
    """The geometric law of :meth:`SplitMixRng.num_children` as integers.

    Returns ascending ``t`` with, for every 53-bit draw ``m = state >> 11``,
    ``num_children(state, q) == len(t) - bisect_right(t, m)``: ``t[i]`` is the
    smallest draw whose branching factor is below ``len(t) - i``.  The law is
    non-increasing in ``m``, so each ``t[i]`` is found by bisecting the draw
    domain with ``num_children`` itself as the predicate, all ``len(t)``
    searches advancing together as one array; no formula is inverted.  ``t``
    is non-decreasing, not strictly increasing: the smallest draws are so far
    apart in ``log`` that some factors are never drawn (q = 0.8: draw 1 gives
    164, draw 2 gives 161), and the entries for those factors coincide.
    """
    law = SplitMixRng.num_children
    shift = np.uint64(_DRAW_SHIFT)
    most = int(law([0], q)[0])
    factor = np.arange(most, 0, -1)
    lo = np.zeros(most, dtype=np.uint64)  # law(lo) >= factor: draw 0 gives ``most``
    hi = np.full(most, 2**_DRAW_BITS - 1, dtype=np.uint64)  # law(hi) == 0 < factor
    while int((hi - lo).max()) > 1:
        mid = lo + ((hi - lo) >> np.uint64(1))
        below = law(mid << shift, q) < factor
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
    return tuple(hi.tolist())
