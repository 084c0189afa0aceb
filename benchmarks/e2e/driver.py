"""The parent side: start workload children, keep the process table clean, fold
their reports into the metrics ``BENCHMARK.json`` names.

The driver never imports ``repro``: everything measured happens in a fresh
child interpreter (:mod:`benchmarks.e2e.child`), started in its own session so
a hung workload and every place process under it can be killed as a group.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: children per run: every end-to-end metric gets one sample from each, and
#: each spends a third of ``--seconds`` on timed repetitions
ROUNDS = 3

#: a whole run must end within the contract's 180 s
RUN_DEADLINE_S = 170.0


#: every child runs on one CPU with one BLAS thread and a fixed hash seed.  On
#: this shared 2-core box identical repetitions varied by +-15% with threaded
#: BLAS (slower, too, on matrices this small) and real-process round trips by
#: 2x with where the scheduler put the places; the child pins itself
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class ChildFailed(RuntimeError):
    """A child died or hung outside a counted operation: the run has no result."""


def _kill_group(pgid: int) -> bool:
    """Kill whatever is left of a child's process group; True if anything was."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


def spawn_child(kind: str, workload: str = "", seed: int = 0, seconds: float = 0.0,
                tiny: bool = False, deadline: float = RUN_DEADLINE_S) -> dict:
    """Run one child to completion and return its report.

    ``kind`` is ``plain`` (timed repetitions), ``profile`` (one repetition
    under cProfile) or ``probes``.  The spawn time is handed to the child so
    its ``setup_s`` includes interpreter start.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--child", kind,
           "--seed", str(seed), "--seconds", repr(seconds), "--t-spawn", repr(time.time())]
    if workload:
        cmd += ["--workload", workload]
    if tiny:
        cmd.append("--tiny")
    env = dict(os.environ, **CHILD_ENV)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.wait()
        raise ChildFailed(f"{kind} child of {workload or 'probes'} exceeded {deadline:.0f}s") from None
    # the child led its own process group: anything still in it is a place
    # process that outlived its launcher
    leaked = _kill_group(proc.pid)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{kind} child of {workload or 'probes'} exited {proc.returncode}")
    report = json.loads(lines[-1])
    if leaked:
        report["failures"].append("processes outlived the workload child: process table not clean")
        report["failed"] = min(report["failed"] + 1, report["attempted"])
    return report


def quartiles(values: list) -> tuple:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def derive(values: dict, wall_s: float) -> None:
    """Add the host-cost ratios: exact counts lined up with untraced host time."""

    def ratio(name: str, numerator: float, denominator: float) -> None:
        if denominator:
            values[name] = numerator / denominator

    get = values.get
    ratio("glb.steal_success_ratio", get("glb.steals_ok", 0), get("glb.steal_attempts", 0))
    ratio("host_us_per_event", wall_s * 1e6, get("sim.events_executed", 0))
    ratio("host_us_per_message", wall_s * 1e6, get("xrt.messages", 0))
    ratio("uts.nodes_per_s", get("uts.nodes", 0), wall_s)
    ratio("serve.jobs_per_host_s", get("serve.jobs_completed", 0), wall_s)
    ratio("procs.frames_per_s", get("procs.messages_routed", 0), wall_s)
    ratio("procs.MB_per_s", get("procs.bytes_routed", 0) / 1e6, wall_s)
    ratio("procs.cpu_per_wall", get("procs.cpu_s", 0), wall_s)


class Samples:
    """Everything measured for one workload, pooled over children."""

    def __init__(self) -> None:
        self.samples = {name: [] for name in END_TO_END}
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.layers: dict = {}

    def add_untraced(self, report: dict) -> None:
        self.samples["wall_s"].append(min(report["wall_s"]))
        self.samples["setup_s"].append(report["setup_s"])
        self.samples["peak_rss_mb"].append(report["peak_rss_mb"])
        self.count(report)
        # untraced per-layer numbers (counts, timed parts): latest child wins
        self.layers.update(report["metrics"])

    def add_traced(self, profiled: dict, probe_rates: dict) -> None:
        self.count(profiled)
        # counts and timed parts stay the untraced child's: the profiler slows them
        self.layers.update(profiled["layers"])
        self.layers.update(probe_rates)
        self.layers["trace.overhead_ratio"] = profiled["wall_s"][0] / min(self.samples["wall_s"])

    def count(self, report: dict) -> None:
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        self.failures += report["failures"]

    def end_to_end(self) -> dict:
        """One value per metric from the children's samples.

        Neighbours on this shared host only ever slow a child down, by up to
        1.5x for seconds to minutes at a time, so the fastest child is the
        least contaminated timing (over 10 runs of one input the fastest
        repetition spread 4%, the median of children's fastest 5-50%).
        Memory has no such one-sided noise: the median.
        """
        return {
            "wall_s": min(self.samples["wall_s"]),
            "setup_s": min(self.samples["setup_s"]),
            "peak_rss_mb": statistics.median(self.samples["peak_rss_mb"]),
        }

    def per_layer(self) -> dict:
        """Every per-layer metric of ``BENCHMARK.json``; 0 where this workload
        does not exercise the layer (or the traced pass was not run)."""
        values = dict(self.layers)
        derive(values, min(self.samples["wall_s"]))
        return {name: float(values.get(name, 0.0)) for name in PER_LAYER}


def measure(workloads: list, seed: int, seconds: float, rounds: int = ROUNDS,
            layers: bool = False, tiny: bool = False, log=None) -> dict:
    """Measure ``workloads``; returns ``{name: Samples}``.

    ``rounds`` untraced children per workload share ``seconds`` of timed
    repetitions.  They run round-robin across workloads, so a burst of
    machine noise costs one child of each workload rather than every child
    of one.  With ``layers`` each workload gets one extra profiled child and
    the probes run once (their operations are counted with the first
    workload); neither is mixed into the end-to-end samples.
    """
    t_end = time.monotonic() + RUN_DEADLINE_S * len(workloads)
    results = {name: Samples() for name in workloads}

    def child(kind: str, name: str = "", budget: float = 0.0) -> dict:
        if log is not None:
            log(f"  {kind:7s} {name}")
        return spawn_child(kind, name, seed, budget, tiny,
                           deadline=max(1.0, t_end - time.monotonic()))

    for _ in range(rounds):
        for name in workloads:
            results[name].add_untraced(child("plain", name, seconds / rounds))
    if layers:
        probes = child("probes")
        results[workloads[0]].count(probes)
        for name in workloads:
            results[name].add_traced(child("profile", name), probes["metrics"])
    return results


def contract_line(samples: Samples, traced: bool) -> str:
    """The result object the contract asks for on the last stdout line."""
    values = samples.per_layer() if traced else samples.end_to_end()
    units = PER_LAYER if traced else END_TO_END
    return json.dumps({
        "correct": samples.failed == 0,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {n: {"value": v, "unit": units[n]["unit"]} for n, v in values.items()},
    })
