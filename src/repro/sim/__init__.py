"""Deterministic discrete-event simulation kernel.

This is the substrate everything else runs on.  It is intentionally small and
completely deterministic: a run is a pure function of the initial processes and
their RNG seeds.  The engine never consults wall-clock time or global random
state.

Concepts
--------
* :class:`~repro.sim.engine.Engine` — the event loop with a virtual clock.
* :class:`~repro.sim.process.Process` — a generator-based coroutine.  A process
  body ``yield``\\ s *effects* and is resumed when the effect completes.
* Effects — :class:`~repro.sim.process.Timeout`,
  :class:`~repro.sim.events.SimEvent` (one-shot condition variables),
  :class:`~repro.sim.store.Store` ``get`` operations, and other processes
  (join).
* :class:`~repro.sim.rng.RngStream` — named, independent, reproducible random
  streams (Philox counter-based), so that concurrent components never share
  RNG state.
"""

from repro.sim.engine import Engine
from repro.sim.events import SimEvent
from repro.sim.process import Process, Timeout
from repro.sim.store import Store
from repro.sim.rng import RngStream


def make_engine() -> Engine:
    """The event core every runtime runs on."""
    return Engine()


__all__ = [
    "Engine",
    "SimEvent",
    "Process",
    "Timeout",
    "Store",
    "RngStream",
    "make_engine",
]
