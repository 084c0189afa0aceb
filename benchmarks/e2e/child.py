"""One workload child process: set up, warm up, repeat, report one JSON line.

The driver starts a fresh interpreter per child so that ``setup_s`` covers
interpreter start, imports, input generation and one untimed warm-up
repetition, and so that ``peak_rss_mb`` is this workload's own high-water
mark.  The child prints exactly one JSON object on its last stdout line.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time

from benchmarks.e2e.workloads import EXACT, VARIANTS, WORKLOADS, Outcome


def _peak_rss_mb() -> float:
    """This process's high-water RSS plus the largest place process it reaped."""
    kib = sum(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def _drift(reference: Outcome, outcome: Outcome) -> list:
    """One failure line if any exact number differs between two repetitions."""
    differing = [
        f"{name} {reference.metrics[name]!r} != {outcome.metrics.get(name)!r}"
        for name in EXACT
        if name in reference.metrics and reference.metrics[name] != outcome.metrics.get(name)
    ]
    return [f"not deterministic between repetitions: {'; '.join(differing)}"] if differing else []


def run_workload(name: str, seed: int, budget_s: float, t_spawn: float,
                 profile: bool = False, tiny: bool = False) -> dict:
    """Set up ``name``, warm up once, then time repetitions for ``budget_s``.

    With ``profile`` the timed part is a single repetition under cProfile and
    the report's ``layers`` is the layer table.
    """
    workload = WORKLOADS[name]
    inputs = workload.setup(seed % VARIANTS, tiny)
    warm = workload.run(inputs)
    setup_s = time.time() - t_spawn

    outcomes, walls, layer_table = [], [], {}
    if profile:
        from benchmarks.e2e.layers import profile_layers

        t0 = time.perf_counter()
        outcome, layer_table = profile_layers(lambda: workload.run(inputs))
        walls.append(time.perf_counter() - t0)
        outcomes.append(outcome)
    else:
        while sum(walls) < budget_s or not walls:
            gc.collect()
            t0 = time.perf_counter()
            outcomes.append(workload.run(inputs))
            walls.append(time.perf_counter() - t0)

    failures = list(warm.failures)
    for outcome in outcomes:
        failures += outcome.failures
        if workload.exact:
            failures += _drift(warm, outcome)
    # per-layer numbers: the median over the timed repetitions (on the
    # simulator clock every repetition reads the same, so this is that value)
    names = sorted(set().union(*(o.metrics for o in outcomes)))
    metrics = {
        n: statistics.median([o.metrics[n] for o in outcomes if n in o.metrics]) for n in names
    }
    attempted = warm.attempted + sum(o.attempted for o in outcomes)
    return {
        "setup_s": setup_s,
        "wall_s": walls,
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "failures": failures[:20],
        "metrics": metrics,
        "layers": layer_table,
    }


def main(args) -> int:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.child == "probes":
        from benchmarks.e2e.probes import run_probes

        metrics, failures = run_probes(args.tiny)
        report = {"metrics": metrics, "attempted": len(metrics), "failed": len(failures),
                  "failures": failures}
    else:
        report = run_workload(args.workload, args.seed, args.seconds, args.t_spawn,
                              profile=args.child == "profile", tiny=args.tiny)
    print(json.dumps(report))
    return 0
