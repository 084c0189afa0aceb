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
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Union

import numpy as np

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# plain-int twins for the scalar fast path (same modular arithmetic)
_MASK_I = 0xFFFFFFFFFFFFFFFF
_GAMMA_I = 0x9E3779B97F4A7C15
_MIX1_I = 0xBF58476D1CE4E5B9
_MIX2_I = 0x94D049BB133111EB


class SplitMixRng:
    """Vectorized SplitMix64-style splittable RNG: states are uint64."""

    name = "splitmix"

    def root_state(self, seed: int) -> np.uint64:
        return _mix(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GAMMA)

    def child_states(self, parent_state: np.uint64, lo: int, hi: int) -> np.ndarray:
        n = hi - lo
        if n <= 32:
            # small batches (the DFS common case) in exact modular Python-int
            # arithmetic: identical uint64 values, none of the per-call numpy
            # overhead (arange + errstate + three ufunc dispatches)
            p = int(parent_state)
            out = np.empty(n, dtype=np.uint64)
            for j in range(n):
                z = (p + (lo + 1 + j) * _GAMMA_I) & _MASK_I
                z = ((z ^ (z >> 30)) * _MIX1_I) & _MASK_I
                z = ((z ^ (z >> 27)) * _MIX2_I) & _MASK_I
                out[j] = z ^ (z >> 31)
            return out
        indices = np.arange(lo + 1, hi + 1, dtype=np.uint64)
        return _mix(np.uint64(parent_state) + indices * _GAMMA)

    def num_children(self, states: np.ndarray, q: float) -> np.ndarray:
        u = _to_unit(states)
        return np.floor(np.log(u) / math.log(q)).astype(np.int64)


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


def make_rng(mode: str) -> Union[SplitMixRng, Sha1Rng]:
    if mode == "splitmix":
        return SplitMixRng()
    if mode == "sha1":
        return Sha1Rng()
    raise ValueError(f"unknown UTS rng mode {mode!r}; use 'splitmix' or 'sha1'")


def _mix(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # modular uint64 arithmetic is intended
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _to_unit(states: np.ndarray) -> np.ndarray:
    """Map uint64 states to (0, 1], avoiding log(0)."""
    u = (np.asarray(states, dtype=np.uint64) >> np.uint64(11)).astype(np.float64)
    u = u * (1.0 / 2**53)
    return np.maximum(u, 1.0 / 2**53)
