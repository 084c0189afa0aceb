"""``repro.obs`` — unified observability: metrics, event tracing, audits.

The subsystem has three parts, threaded through every layer of the stack
(sim -> machine -> xrt -> runtime -> glb -> harness -> cli):

* :mod:`repro.obs.metrics` — a registry of named counters/gauges/histograms
  with per-place and per-protocol labels, the single source of every
  traffic and activity count.
* :mod:`repro.obs.trace` — an event tracer recording simulated-time spans and
  messages, exporting JSONL and Chrome ``trace_event`` timelines.
* :mod:`repro.obs.audit` — a protocol auditor checking paper invariants
  (finish control-message closed forms, GLB victim out-degree <= 1024,
  broadcast tree depth <= ceil(log2 p), routing <= 3 hops) against a trace.

One :class:`Observability` instance is owned by each
:class:`~repro.runtime.runtime.ApgasRuntime` (``rt.obs``) and shared by its
transport, network, finish protocols, teams, and load balancer.  Metrics are
always on (they replace counters the stack kept anyway); tracing is opt-in.
Neither touches the simulation engine, so observed runs are bit-for-bit
identical to unobserved ones.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.obs.audit import AuditCheck, AuditReport, audit_trace, expected_ctl_bounds
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    ObsError,
    Sample,
)
from repro.obs.trace import TraceEvent, Tracer


class Observability:
    """The bundle a runtime owns: one metrics registry plus one tracer."""

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        trace: Union[bool, Tracer] = False,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace = trace if isinstance(trace, Tracer) else Tracer(enabled=bool(trace))

    def observe_engine(self, engine) -> None:
        """Expose the simulation engine's clock and event count as gauges."""
        self.metrics.gauge("sim.now", fn=lambda: engine.now)
        self.metrics.gauge("sim.events_executed", fn=lambda: engine.events_executed)


__all__ = [
    "AuditCheck",
    "AuditReport",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Observability",
    "ObsError",
    "Sample",
    "TraceEvent",
    "Tracer",
    "audit_trace",
    "expected_ctl_bounds",
]
