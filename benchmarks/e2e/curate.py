"""Regenerate the equal-work input tables of :mod:`benchmarks.e2e.workloads`.

    python3 benchmarks/e2e/curate.py uts      # -> UTS_TREES_512
    python3 benchmarks/e2e/curate.py chaos    # -> UTS_CHAOS_128
    python3 benchmarks/e2e/curate.py serve    # -> SERVE_SEEDS

Ten runs with ten seeds are only comparable if every seed costs the same host
time, and the work of a GLB run is chaotic in its inputs: the same tree with
another victim-selection seed executes +-10% events.  So ``--seed`` picks from
committed tables, and this tool makes them from counts that repeat exactly,
not from timings.

UTS: host seconds fit ``a * events + b * nodes`` (least squares over 288 runs
of 48 trees, one-sided outliers dropped: 1.01e-5 and 1.32e-6 at 512 places,
2.33e-5 and 6.3e-7 under chaos at 128; residual 1.7%).  The candidates are
the depth-9 trees among tree seeds 0..399 within 5% of the headline tree's
205,011 nodes, each with ``CANDIDATE_SEEDS`` GLB (or chaos) seeds; the table
keeps the ``VARIANTS`` whose predicted cost is nearest the headline entry's, which
comes first so that ``--seed 0`` runs ROADMAP's tree.

Serve: the batch tenant draws each job's kernel, so its uts/kmeans split
varies by seed.  The table keeps scenario seeds whose split is exactly the
configured 60/40, and of those the ``VARIANTS`` nearest the median event count.

Run it only in a change that is allowed to edit the benchmark: a protocol
change moves the event counts, and the tables with them.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

from benchmarks.e2e.workloads import VARIANTS, serve_scenario, uts_kwargs  # noqa: E402

CANDIDATE_SEEDS = range(48)
#: tree seed -> nodes (``repro.kernels.uts.sequential.sequential_count``)
TREES = {19: 205011, 74: 208390, 226: 200379, 228: 199096, 245: 198873, 325: 208617, 341: 214834}
#: table -> (places, host cost of a node in events (b / a), headline entry)
UTS_TABLES = {"uts": (512, 0.1307, (19, 2)), "chaos": (128, 0.02715, (19, 4))}


def _events(result) -> int:
    return result.extra["metrics"].total("sim.events_executed")


def curate_uts(table: str) -> list:
    """``VARIANTS`` rows ``(tree seed, variant seed, nodes, events)``."""
    from repro.harness.runner import simulate

    places, node_events, headline = UTS_TABLES[table]
    cost = {}
    for tree, nodes in TREES.items():
        for variant in CANDIDATE_SEEDS:
            result = simulate("uts", places, depth=9, **uts_kwargs(table, tree, variant))
            assert result.extra["nodes"] == nodes
            cost[tree, variant] = (_events(result) + node_events * nodes, nodes, _events(result))
    target = cost[headline][0]
    nearest = sorted(cost, key=lambda key: (key != headline, abs(cost[key][0] - target)))
    return [(*key, *cost[key][1:]) for key in nearest[:VARIANTS]]


def curate_serve() -> list:
    """``VARIANTS`` rows ``(scenario seed, events)``."""
    from collections import Counter

    from repro.serve import generate_traffic, parse_scenario, run_scenario

    events = {}
    for seed in range(1500):
        scenario = serve_scenario(seed, tiny=False)
        batch = scenario["tenants"][0]
        split = {k: round(share * batch["max_jobs"]) for k, share in batch["kernel_mix"].items()}
        spec = parse_scenario(scenario, name="e2e")
        drawn = Counter(job.kernel for job in generate_traffic(spec) if job.tenant == batch["name"])
        if drawn == split:
            _report, _outcome, rt = run_scenario(spec)
            events[seed] = rt.obs.metrics.snapshot().total("sim.events_executed")
    median = statistics.median(events.values())
    return [(seed, events[seed]) for seed in sorted(events, key=lambda s: abs(events[s] - median))[:VARIANTS]]


if __name__ == "__main__":
    which = sys.argv[1] if len(sys.argv) == 2 else ""
    if which in UTS_TABLES:
        for tree, variant, nodes, events in curate_uts(which):
            print(f"    ({tree}, {variant}, {nodes}),  # {events} events")
    elif which == "serve":
        for seed, events in sorted(curate_serve()):
            print(f"    {seed},  # {events} events")
    else:
        sys.exit(__doc__)
