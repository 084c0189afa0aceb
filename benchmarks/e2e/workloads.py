"""The seven workloads: input generation, one repetition of fixed work, checks.

A workload is a pair of functions.  ``setup(seed, tiny)`` makes the inputs
(and the references the outputs are checked against) from the seed alone;
``run(inputs)`` does one repetition of the workload's fixed work through the
repository's public entry points and returns an :class:`Outcome`: operations
attempted and failed, and the per-layer numbers the public result objects
carry.  Timing is the caller's job (:mod:`benchmarks.e2e.child`), so the same
``run`` serves the untraced and the profiled pass.  ``repro`` is imported
inside the functions: importing this module costs nothing, and ``--compare``
can read the workload table where ``repro`` is absent.

The seed changes data, traffic and fault seeds, never the amount of work: a
repetition costs the same host time on every seed to within the spread the
README quotes, which is what lets ten runs with ten seeds be compared.  Inputs
whose shape sets the amount of work come from the committed tables below.
"""

from __future__ import annotations

import functools
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

#: distinct inputs per workload: ``--seed N`` runs input ``N % VARIANTS`` (the
#: child folds it; ``setup`` takes 0..VARIANTS-1), so every input the benchmark
#: can be asked for has been run and checked at full size
VARIANTS = 12

#: a hang on real processes becomes a counted failure, not a stalled benchmark
PROCS_DEADLINE = 20.0

#: counters of ``KernelResult.extra["metrics"]`` (and ``run_scenario``'s
#: runtime) reported under their own names; the simulator's determinism
#: contract makes every one repeat exactly for a given seed
SIM_COUNTS = (
    "sim.events_executed", "net.messages", "net.bytes", "xrt.messages",
    "finish.ctl_messages", "finish.ctl_bytes", "finish.opened",
    "runtime.activities_spawned", "runtime.remote_spawns", "runtime.remote_evals",
    "glb.steal_attempts", "glb.steals_ok", "glb.lifelines_sent", "team.collectives",
    "chaos.drops", "chaos.duplicates", "chaos.delays", "chaos.reorders",
    "transport.acks", "transport.retry.count",
)

#: numbers that must be identical between two repetitions (and two commits)
#: on the simulator clock: the counters above, simulated time, and the
#: serving layer's simulated-time results
EXACT = SIM_COUNTS + (
    "sim_time_s", "uts.nodes", "serve.jobs_completed", "serve.jobs_rejected",
    "serve.sim_p50_ms", "serve.sim_p95_ms", "serve.goodput_jobs_per_sim_s",
)

#: UTS inputs for ``sim_uts_512``: (tree seed, GLB seed, node count by
#: sequential traversal).  The work of a GLB run is chaotic in its inputs (one
#: tree under another victim-selection seed executes +-10% events), so ``--seed``
#: picks from entries of equal predicted host time; ``curate.py`` says how they
#: are chosen and regenerates them.  ROADMAP's headline tree comes first.
UTS_TREES_512 = (
    (19, 2, 205011), (74, 34, 208390), (19, 3, 205011), (341, 4, 214834),
    (19, 23, 205011), (19, 35, 205011), (74, 8, 208390), (341, 41, 214834),
    (341, 13, 214834), (341, 19, 214834), (341, 29, 214834), (74, 17, 208390),
)

#: inputs for ``sim_uts_chaos_128``: (tree seed, chaos seed - 7, node count),
#: chosen the same way at 128 places under the workload's fault spec
UTS_CHAOS_128 = (
    (19, 4, 205011), (19, 23, 205011), (226, 46, 200379), (325, 41, 208617),
    (325, 7, 208617), (19, 41, 205011), (19, 18, 205011), (325, 21, 208617),
    (74, 42, 208390), (19, 14, 205011), (19, 12, 205011), (325, 32, 208617),
)

#: scenario seeds for ``serve_small_jobs_64`` whose batch tenant draws exactly
#: its configured 60/40 uts/kmeans split, nearest the median event count
SERVE_SEEDS = (
    96, 325, 561, 673, 685, 740, 750, 784, 993, 1055, 1121, 1149,
)

#: tree seeds for the portable uts of ``procs_ctl_4``, where host time follows
#: the node count: the eight depth-9 trees among seeds 0..399 nearest 205k nodes
UTS_TREES_PROCS = (19, 74, 325, 226, 228, 245, 341, 373)

CHAOS_FAULTS = "drop=0.05,dup=0.02,delay=0.1:2e-5,reorder=0.05:5e-5"


def uts_kwargs(table: str, tree: int, variant: int) -> dict:
    """``simulate("uts", ...)`` keywords for one table entry (``uts`` | ``chaos``)."""
    if table == "chaos":
        return {"seed": tree, "chaos": f"seed={7 + variant},{CHAOS_FAULTS}"}
    from repro.glb import GlbConfig

    # chunk_items=64 is what simulate("uts") itself defaults to
    return {"seed": tree, "glb_config": GlbConfig(chunk_items=64, seed=variant)}


@dataclass
class Outcome:
    """What one repetition did: checked operations and per-layer numbers."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def add(self, name: str, amount: float) -> None:
        self.metrics[name] = self.metrics.get(name, 0) + amount


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, bool], dict]
    run: Callable[[dict], Outcome]
    #: True on the simulator clock: the ``EXACT`` numbers repeat exactly
    exact: bool


# -- the simulator clock ---------------------------------------------------------------


def _simulate(out: Outcome, kernel: str, places: int, nodes: Optional[int] = None, **kw):
    """One checked ``simulate()`` call; returns its host seconds (None if it failed)."""
    from repro.harness.runner import simulate

    label = f"simulate({kernel}@{places})"
    out.attempted += 1
    t0 = time.perf_counter()
    try:
        result = simulate(kernel, places, **kw)
    except Exception as exc:  # a repetition that raises is a counted failure
        out.failures.append(f"{label} raised {type(exc).__name__}: {exc}")
        return None
    wall = time.perf_counter() - t0
    if result.verified is False:
        out.failures.append(f"{label} reports verified=False")
    if nodes is not None:
        out.add("uts.nodes", result.extra["nodes"])
        if result.extra["nodes"] != nodes:
            out.failures.append(
                f"{label} counted {result.extra['nodes']} nodes, sequential traversal {nodes}"
            )
    _add_sim_counts(out, result.extra["metrics"], result.sim_time)
    return wall


def _add_sim_counts(out: Outcome, snapshot, sim_time: float) -> None:
    for name in SIM_COUNTS:
        out.add(name, snapshot.total(name))
    out.add("sim_time_s", sim_time)


def _tiny_tree(seed: int, depth: int) -> int:
    from repro.kernels.uts.sequential import sequential_count
    from repro.kernels.uts.tree import UtsParams

    return sequential_count(UtsParams(b0=4.0, depth=depth, seed=seed))


def _setup_uts(seed: int, tiny: bool, table: str = "uts") -> dict:
    if tiny:
        # chaos faults hit only messages that leave an octant (32 places)
        places, depth, tree, variant = (40 if table == "chaos" else 16), 6, 19 + seed, seed
        nodes = _tiny_tree(tree, depth)
    else:
        entries, places = (UTS_CHAOS_128, 128) if table == "chaos" else (UTS_TREES_512, 512)
        (tree, variant, nodes), depth = entries[seed], 9
    return {"places": places, "nodes": nodes,
            "kwargs": {"depth": depth, **uts_kwargs(table, tree, variant)}}


def _run_uts(inp: dict) -> Outcome:
    out = Outcome()
    _simulate(out, "uts", inp["places"], nodes=inp["nodes"], **inp["kwargs"])
    return out


def _setup_hpl(seed: int, tiny: bool) -> dict:
    if tiny:
        return {"places": 16, "N": 128, "seed": seed}
    return {"places": 256, "N": 640, "seed": seed}


def _run_hpl(inp: dict) -> Outcome:
    out = Outcome()
    _simulate(out, "hpl", inp["places"], N=inp["N"], seed=inp["seed"])
    return out


#: ``sim_math_6``: (kernel, places, parameters, name of its seed parameter)
MATH_KERNELS = (
    ("kmeans", 32, {}, "seed"),
    ("smithwaterman", 8, {}, "seed"),
    ("stream", 64, {}, None),
    ("randomaccess", 24, {}, None),
    ("fft", 96, {}, "seed"),
    ("bc", 8, {"scale": 8}, "seed"),
)
MATH_KERNELS_TINY = (
    ("kmeans", 4, {"points_per_place": 2000, "k": 64}, "seed"),
    ("smithwaterman", 2, {"short_len": 200, "long_per_place": 2000}, "seed"),
    ("stream", 4, {}, None),
    ("randomaccess", 4, {}, None),
    ("fft", 4, {}, "seed"),
    ("bc", 2, {"scale": 6}, "seed"),
)


def _setup_math(seed: int, tiny: bool) -> dict:
    runs = []
    for kernel, places, params, seed_key in MATH_KERNELS_TINY if tiny else MATH_KERNELS:
        params = dict(params)
        if seed_key is not None:
            params[seed_key] = seed
        runs.append((kernel, places, params))
    return {"runs": runs}


def _run_math(inp: dict) -> Outcome:
    out = Outcome()
    for kernel, places, params in inp["runs"]:
        wall = _simulate(out, kernel, places, **params)
        if wall is not None:
            out.metrics[f"kernel.{kernel}.wall_s"] = wall
    return out


def serve_scenario(seed: int, tiny: bool) -> dict:
    """The scenario for one scenario seed: the seed moves arrival times and
    kernel picks; ``max_jobs``, not the arrival window, ends each tenant's
    traffic, so every seed offers the same number of jobs."""
    places, batch_jobs, interactive_jobs = (8, 8, 12) if tiny else (64, 400, 600)
    quota = max(2, (places - 1) // 2)
    return {
        "seed": seed, "places": places, "duration": 3.0,
        "tenants": [
            {"name": "batch", "rate": 400.0, "weight": 1.0, "priority": 2,
             "quota_places": quota, "max_jobs": batch_jobs,
             "kernel_mix": {"uts": 0.6, "kmeans": 0.4}},
            {"name": "interactive", "rate": 600.0, "weight": 2.0, "priority": 1,
             "quota_places": quota, "max_jobs": interactive_jobs,
             "kernel_mix": {"stream": 1.0}},
        ],
    }


def _setup_serve(seed: int, tiny: bool) -> dict:
    from repro.serve import parse_scenario

    scenario = serve_scenario(seed if tiny else SERVE_SEEDS[seed], tiny)
    return {"jobs": sum(tenant["max_jobs"] for tenant in scenario["tenants"]),
            "spec": parse_scenario(scenario, name="e2e")}


def _run_serve(inp: dict) -> Outcome:
    """One operation per offered job; a job that did not complete ok failed."""
    from repro.serve import run_scenario

    out = Outcome(attempted=inp["jobs"])
    try:
        report, _outcome, rt = run_scenario(inp["spec"])
    except Exception as exc:  # a repetition that raises fails every job in it
        out.failures += [f"run_scenario raised {type(exc).__name__}: {exc}"] * inp["jobs"]
        return out
    if report.jobs != inp["jobs"]:
        out.failures.append(f"serve offered {report.jobs} jobs, scenario caps sum to {inp['jobs']}")
    for status in ("aborted", "rejected", "starved"):
        out.failures += [f"serve: job {status}"] * getattr(report, status)
    _add_sim_counts(out, rt.obs.metrics.snapshot(), report.makespan)
    out.metrics.update({
        "serve.jobs_completed": report.completed,
        "serve.jobs_rejected": report.rejected,
        "serve.sim_p50_ms": (report.latency["p50"] or 0.0) * 1e3,
        "serve.sim_p95_ms": (report.latency["p95"] or 0.0) * 1e3,
        "serve.goodput_jobs_per_sim_s": report.goodput_jobs_per_s,
    })
    return out


# -- the wall clock: real processes -----------------------------------------------------


def surviving_children() -> list:
    """Pids whose parent is this process (``/proc`` scan): must be empty after a run."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:  # exited while we were scanning
            continue
        # fields after the parenthesised command name: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def _procs(out: Outcome, label: str, program, places: int, params: Optional[dict] = None):
    """One checked ``run_procs_program``; returns ``(report, wall_s)`` or ``(None, None)``."""
    from repro.errors import ProcsError, ProcsTimeoutError
    from repro.xrt.procs import run_procs_program

    out.attempted += 1
    report = wall = None
    t0 = time.perf_counter()
    try:
        report = run_procs_program(program, places, params=params, deadline=PROCS_DEADLINE)
        wall = time.perf_counter() - t0
    except (ProcsError, ProcsTimeoutError) as exc:
        # the message names the place and the cause (crash traceback, wait
        # status, or the deadline with the count of blocked processes)
        out.failures.append(f"{label}@{places}: {type(exc).__name__}: {str(exc)[:400]}")
    leaked = surviving_children()
    if leaked:
        out.failures.append(f"{label}@{places}: place processes survived the run: {leaked}")
        for pid in leaked:
            try:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
            except OSError:
                pass
    if report is None:
        return None, None
    out.add("procs.messages_routed", report.messages_routed)
    out.add("procs.bytes_routed", report.bytes_routed)
    out.add("procs.ctl_messages", sum(report.ctl_by_pragma.values()))
    out.add("procs.frames_dropped", report.frames_dropped)
    return report, wall


def _expect(out: Outcome, label: str, what: str, got, want) -> None:
    if got != want:
        out.failures.append(f"{label}: {what} {got!r}, expected {want!r}")


def _sim_references(kernels: dict, places: int) -> dict:
    """Checksum and per-pragma ctl counts of the sim backend, per kernel."""
    from repro.xrt.backend import get_backend

    sim = get_backend("sim")
    refs = {}
    for kernel, params in kernels.items():
        run = sim.run(kernel, places, **params)
        refs[kernel] = {"checksum": run.checksum, "ctl": dict(run.ctl_by_pragma)}
    return refs


def _run_kernels(out: Outcome, inp: dict) -> None:
    for kernel, params in inp["kernels"].items():
        report, wall = _procs(out, kernel, kernel, inp["places"], params)
        if report is None:
            continue
        ref = inp["refs"][kernel]
        _expect(out, kernel, "checksum", report.result.get("checksum"), ref["checksum"])
        _expect(out, kernel, "ctl counts", dict(report.ctl_by_pragma), ref["ctl"])
        out.metrics[f"procs.kernel.{kernel}.wall_s"] = wall


def _percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _cpu_seconds() -> float:
    """User + system CPU of this process and of every place process it reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _with_cpu(body: Callable[[Outcome, dict], None]) -> Callable[[dict], Outcome]:
    @functools.wraps(body)
    def run(inp: dict) -> Outcome:
        out = Outcome()
        cpu0 = _cpu_seconds()
        body(out, inp)
        out.metrics["procs.cpu_s"] = _cpu_seconds() - cpu0
        return out

    return run


def _kernel_params(table: dict, seed: int, tree_seed: Optional[int] = None) -> dict:
    from repro.kernels.portable import program_defaults

    kernels = {}
    for kernel, params in table.items():
        params = dict(params)
        if kernel == "uts":
            params["seed"] = tree_seed
        elif "seed" in program_defaults(kernel):
            params["seed"] = program_defaults(kernel)["seed"] + seed
        kernels[kernel] = params
    return kernels


#: ``procs_ctl_4``: round-trip counts and the portable kernels at 4 places
CTL_SIZES = {"rtt1": 3000, "rtt2": 1500, "waves": 1000, "micro_places": 3, "places": 4}
CTL_KERNELS = {
    "uts": {"depth": 9},
    "kmeans": {"n_per_place": 2048},
    "stream": {"n_per_place": 1 << 17},
    "smithwaterman": {"target_len": 4096},
    "bc": {"scale": 7},
}
CTL_SIZES_TINY = {"rtt1": 100, "rtt2": 50, "waves": 30, "micro_places": 3, "places": 4}
CTL_KERNELS_TINY = {"uts": {"depth": 6}, "kmeans": {}, "stream": {}, "smithwaterman": {}, "bc": {"scale": 5}}


def _setup_ctl(seed: int, tiny: bool) -> dict:
    sizes = CTL_SIZES_TINY if tiny else CTL_SIZES
    tree = 19 + seed if tiny else UTS_TREES_PROCS[seed % len(UTS_TREES_PROCS)]
    kernels = _kernel_params(CTL_KERNELS_TINY if tiny else CTL_KERNELS, seed, tree)
    return {**sizes, "kernels": kernels, "refs": _sim_references(kernels, sizes["places"])}


@_with_cpu
def _run_ctl(out: Outcome, inp: dict) -> None:
    from benchmarks.e2e import programs

    micro, n1, n2, waves = inp["micro_places"], inp["rtt1"], inp["rtt2"], inp["waves"]
    teardown = 2 * (micro - 1)  # one EXIT and one DONE per place process

    report, wall = _procs(out, "empty", programs.empty_main, inp["places"])
    if report is not None:
        out.metrics["procs.launch_s"] = wall

    report, _ = _procs(out, "rtt_1hop", functools.partial(programs.rtt_1hop_main, n=n1), micro)
    if report is not None:
        _expect(out, "rtt_1hop", "replies intact", report.result["intact"], True)
        _expect(out, "rtt_1hop", "frames", report.messages_routed, 2 * n1 + teardown)
        out.metrics["procs.rtt_1hop_p50_us"] = statistics.median(report.result["rtt_s"]) * 1e6
        out.metrics["procs.rtt_1hop_p99_us"] = _percentile(report.result["rtt_s"], 0.99) * 1e6

    report, _ = _procs(out, "rtt_2hop", functools.partial(programs.rtt_2hop_main, n=n2), micro)
    if report is not None:
        _expect(out, "rtt_2hop", "replies intact", report.result["intact"], True)
        # each trip crosses place 0 twice each way; plus the at() that starts the pinger
        _expect(out, "rtt_2hop", "frames", report.messages_routed, 4 * n2 + 2 + teardown)
        out.metrics["procs.rtt_2hop_p50_us"] = statistics.median(report.result["rtt_s"]) * 1e6
        out.metrics["procs.rtt_2hop_p99_us"] = _percentile(report.result["rtt_s"], 0.99) * 1e6

    report, _ = _procs(out, "dense_waves", functools.partial(programs.dense_waves_main, waves=waves), micro)
    if report is not None:
        joins = waves * (micro - 1)
        _expect(out, "dense_waves", "finish_dense ctl", report.ctl_by_pragma.get("finish_dense"), joins)
        _expect(out, "dense_waves", "frames", report.messages_routed, 2 * joins + teardown)
        out.metrics["procs.dense_waves_per_s"] = waves / report.result["wall_s"]

    _run_kernels(out, inp)


#: ``procs_bulk_2``: 1 MiB echoes and the array-shipping kernels at 2 places
BULK_SIZES = {"echoes": 250, "nbytes": 1 << 20, "places": 2}
BULK_KERNELS = {
    "fft": {"n1": 512, "n2": 512},
    "randomaccess": {"log2_table": 20, "updates_per_place": 1 << 18},
    "hpl": {"n": 256, "nb": 32},
}
BULK_SIZES_TINY = {"echoes": 4, "nbytes": 1 << 20, "places": 2}
BULK_KERNELS_TINY = {"fft": {}, "randomaccess": {}, "hpl": {"n": 32, "nb": 8}}


def _setup_bulk(seed: int, tiny: bool) -> dict:
    sizes = BULK_SIZES_TINY if tiny else BULK_SIZES
    kernels = _kernel_params(BULK_KERNELS_TINY if tiny else BULK_KERNELS, seed)
    return {**sizes, "seed": seed, "kernels": kernels,
            "refs": _sim_references(kernels, sizes["places"])}


@_with_cpu
def _run_bulk(out: Outcome, inp: dict) -> None:
    from benchmarks.e2e import programs

    n, nbytes = inp["echoes"], inp["nbytes"]
    main = functools.partial(programs.echo_bulk_main, n=n, nbytes=nbytes, seed=inp["seed"])
    report, _ = _procs(out, "echo_1MiB", main, inp["places"])
    if report is not None:
        _expect(out, "echo_1MiB", "replies intact", report.result["intact"], True)
        _expect(out, "echo_1MiB", "frames", report.messages_routed, 2 * n + 2)
        p50 = statistics.median(report.result["rtt_s"])
        out.metrics["procs.echo_1MiB_p50_ms"] = p50 * 1e3
        out.metrics["procs.echo_1MiB_MB_per_s"] = 2 * nbytes / p50 / 1e6
    _run_kernels(out, inp)


WORKLOADS = {w.name: w for w in (
    Workload("sim_uts_512", _setup_uts, _run_uts, exact=True),
    Workload("sim_hpl_256", _setup_hpl, _run_hpl, exact=True),
    Workload("sim_math_6", _setup_math, _run_math, exact=True),
    Workload("sim_uts_chaos_128", functools.partial(_setup_uts, table="chaos"), _run_uts, exact=True),
    Workload("serve_small_jobs_64", _setup_serve, _run_serve, exact=True),
    Workload("procs_ctl_4", _setup_ctl, _run_ctl, exact=False),
    Workload("procs_bulk_2", _setup_bulk, _run_bulk, exact=False),
)}
