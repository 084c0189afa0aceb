"""Shared machinery for the golden-trace and race-free replay tests.

One kernel run is reduced to a *fingerprint*: the canonical trace digest plus
every observable the determinism contract covers (result fields, checksum,
finish control traffic, engine event count, and the full deterministic
metrics rendering).  Two runs are equivalent iff their fingerprints are
equal — there is no tolerance anywhere, the comparison is bit-exact.
"""

from __future__ import annotations

import hashlib

from repro.harness.runner import simulate

#: every kernel of the paper's evaluation, at a place count small enough that
#: the whole matrix runs in CI
KERNEL_PLACES = {
    "stream": 8,
    "randomaccess": 8,
    "fft": 8,
    "hpl": 8,
    "uts": 8,
    "kmeans": 8,
    "smithwaterman": 8,
    "bc": 4,  # the graph build dominates wall time; 4 places keeps it honest
}

#: the matrix above fits in one 32-core octant, so it sends shared-memory
#: messages only; these run on ``MachineConfig.small()`` (4 cores/octant) and
#: cross octants: route-cache misses and LL/LR/D link reservations
CROSS_OCTANT_PLACES = {
    "uts": 64,
    "randomaccess": 64,
}

#: fault-injected runs on ``MachineConfig.small()``, keyed by golden name:
#: (kernel, places, ``simulate`` keywords).  Faults hit only messages that
#: leave an octant, so these pin the resilient transport's ack, retry and
#: duplicate-suppression path leg by leg, and the resilient epoch protocol
#: across a place kill
CHAOS_CASES = {
    "uts@64+chaos": (
        "uts", 64, {"chaos": "seed=7,drop=0.05,dup=0.02,delay=0.1:2e-5,reorder=0.05:5e-5"},
    ),
    "uts@64+kill": (
        "uts", 64, {"chaos": "seed=7,drop=0.05,dup=0.02,kill=9@0.02", "resilient": True},
    ),
}


def canonical_digest(tracer) -> str:
    """SHA-256 over the tracer's canonical JSONL export (order-sensitive)."""
    h = hashlib.sha256()
    for line in tracer._jsonl_lines():
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


#: session cache: runs are deterministic, so the golden-trace and race-free
#: tests can share one simulation per (kernel, places)
_CACHE: dict = {}


def run_fingerprint(kernel: str, places: int, config=None, **kwargs) -> dict:
    """Run ``kernel`` traced and reduce the run to comparable facts;
    ``kwargs`` go to :func:`simulate` (``chaos=``, ``resilient=``)."""
    key = (kernel, places, config, tuple(sorted(kwargs.items())))
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    result = simulate(kernel, places, config=config, trace=True, **kwargs)
    metrics = result.extra["metrics"]
    fp = _CACHE[key] = {
        "kernel": kernel,
        "places": places,
        "trace_digest": canonical_digest(result.extra["trace"]),
        "trace_events": len(result.extra["trace"]),
        "sim_time": result.sim_time.hex(),
        "value": float(result.value).hex(),
        "unit": result.unit,
        "verified": result.verified,
        "checksum": result.extra.get("checksum"),
        "finish_ctl_messages": metrics.total("finish.ctl_messages"),
        "finish_ctl_bytes": metrics.total("finish.ctl_bytes"),
        "events_executed": metrics.total("sim.events_executed"),
        "metrics": metrics.render(),
    }
    return fp


def golden_form(fp: dict) -> dict:
    """The committed shape of a fingerprint: the full metrics rendering is
    folded to a digest so golden files stay reviewable."""
    out = {k: v for k, v in fp.items() if k != "metrics"}
    out["metrics_digest"] = hashlib.sha256(fp["metrics"].encode()).hexdigest()
    return out
