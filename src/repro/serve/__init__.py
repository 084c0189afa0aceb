"""``repro.serve`` — a multi-tenant job scheduler over the simulated machine.

The paper's runtime serves one program at petascale; this subsystem turns the
same simulated machine into a *serving* platform: many concurrent kernel jobs
from competing tenants, admitted under quotas, ordered by priority and
weighted fair share, each running on its own disjoint
:class:`~repro.runtime.broadcast.PlaceGroup` partition, with chaos-killed
places healed by the elastic-revive machinery and handed back to the pool.

Layers (each its own module):

* :mod:`repro.serve.scenario` — declarative scenario specs (JSON or dicts);
* :mod:`repro.serve.traffic` — seeded open-loop Poisson arrivals, replayable;
* :mod:`repro.serve.jobs` — the kernel catalog, adapting ``build_*`` builders;
* :mod:`repro.serve.scheduler` — admission, queueing, dispatch, recovery;
* :mod:`repro.serve.slo` — p50/p95/p99 latency, goodput, queue depth, digest.

The whole pipeline is deterministic: a scenario plus its seed fixes the
traffic, the dispatch order, every job's result, and the report digest.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.serve.jobs import KERNEL_PROFILES, SERVABLE_KERNELS
from repro.serve.scenario import (
    ScenarioSpec,
    TenantSpec,
    load_scenario,
    parse_scenario,
    quick_scenario,
)
from repro.serve.scheduler import Job, ServeOutcome, ServeScheduler
from repro.serve.slo import SloReport, build_report, digest, validate_report
from repro.serve.traffic import JobRequest, generate_traffic


def run_scenario(
    spec: ScenarioSpec, trace: bool = False, rt=None
) -> Tuple[SloReport, ServeOutcome, "object"]:
    """Run one scenario end to end; returns ``(report, outcome, rt)``.

    ``trace=True`` enables the event tracer so the caller can run the
    ``serve.isolation`` audit afterwards; pass an existing ``rt`` to control
    the machine configuration (its place count must match the spec).
    """
    if rt is None:
        from repro.harness.runner import make_runtime

        rt = make_runtime(spec.places, trace=trace, chaos=spec.chaos)
    scheduler = ServeScheduler(rt, spec)
    outcome = scheduler.run()
    report = build_report(outcome, metrics=rt.obs.metrics)
    return report, outcome, rt


__all__ = [
    "Job",
    "JobRequest",
    "KERNEL_PROFILES",
    "SERVABLE_KERNELS",
    "ScenarioSpec",
    "ServeOutcome",
    "ServeScheduler",
    "SloReport",
    "TenantSpec",
    "build_report",
    "digest",
    "generate_traffic",
    "load_scenario",
    "parse_scenario",
    "quick_scenario",
    "run_scenario",
    "validate_report",
]
