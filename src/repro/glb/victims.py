"""Bounded random victim sets.

We precompute for each place a set of potential victims with no more than
1,024 elements to bound the out-degree of the communication graph; without
such a bound we observe a severe degradation of the network performance at
scale (paper Section 6.1 — modeled here by the hub route cache).
"""

from __future__ import annotations

import numpy as np

from repro.sim.rng import RngStream


def victim_set(n_places: int, place: int, max_victims: int, seed: int = 0) -> np.ndarray:
    """Deterministic random subset of potential victims for ``place``.

    Returns every other place when ``max_victims`` is None/large enough — the
    *unbounded* configuration of the original algorithm [35].
    """
    others = n_places - 1
    if others <= 0:
        return np.empty(0, dtype=np.int64)
    if max_victims is None or max_victims >= others:
        victims = np.arange(n_places, dtype=np.int64)
        victims = victims[victims != place]
        return victims
    # sample without replacement from [0, n) \ {place}
    rng = RngStream(seed, f"glb/victims/{place}")
    raw = rng.choice(others, size=max_victims, replace=False)
    victims = np.where(raw >= place, raw + 1, raw).astype(np.int64)
    return victims
