"""Named, independent, reproducible random streams.

Concurrent simulation components must never share RNG state — otherwise the
set of random draws (and hence the whole run) depends on event interleaving
details.  Every component derives its own :class:`RngStream` from the run seed
and a stable string key; streams with different keys are statistically
independent (Philox counter-based keys).
"""

from __future__ import annotations

import hashlib

import numpy as np


def _key_to_int(key: str) -> int:
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


class RngStream:
    """A numpy ``Generator`` keyed by ``(seed, name)``.

    Two streams built from the same seed and name produce identical draws;
    streams with different names are independent.
    """

    def __init__(self, seed: int, name: str) -> None:
        self.seed = int(seed)
        self.name = name
        key = (self.seed << 64) ^ _key_to_int(name)
        self.generator = np.random.Generator(np.random.Philox(key=key & ((1 << 128) - 1)))

    def child(self, name: str) -> "RngStream":
        """Derive a sub-stream with a hierarchical name."""
        return RngStream(self.seed, f"{self.name}/{name}")

    def skip(self, draws: int) -> "RngStream":
        """Jump past the next ``draws`` 64-bit outputs (one per ``uniform``
        double) without making them; returns the stream."""
        self.generator.bit_generator.advance(draws // 4)  # one Philox counter step is four draws
        self.generator.random(draws % 4)
        return self

    # Thin pass-throughs for the draws the simulator uses most.

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self.generator.uniform(low, high, size=size)

    def integers(self, low, high=None, size=None):
        return self.generator.integers(low, high, size=size)

    def exponential(self, scale: float = 1.0, size=None):
        return self.generator.exponential(scale, size=size)

    def choice(self, a, size=None, replace=True):
        return self.generator.choice(a, size=size, replace=replace)

    def shuffle(self, x) -> None:
        self.generator.shuffle(x)

    def permutation(self, x):
        return self.generator.permutation(x)
