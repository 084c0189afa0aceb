"""Command-line interface for the reproduction harness.

::

    python -m repro.cli kernels                      # list kernels
    python -m repro.cli run uts --places 64          # one simulated run
    python -m repro.cli run uts --places 64 --stats  # ... plus the metrics snapshot
    python -m repro.cli run uts --places 32 --chaos "seed=7,drop=0.05"   # fault injection
    python -m repro.cli trace uts --places 32        # traced run + protocol audit
    python -m repro.cli figure stream               # one Figure 1 panel
    python -m repro.cli tables                      # Tables 1 and 2
    python -m repro.cli report                      # the whole EXPERIMENTS body
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.errors import (
    ChaosError,
    DeadPlaceError,
    KernelError,
    PlaceError,
    ProcsError,
    ProcsTimeoutError,
    ResilientError,
)
from repro.harness.figures import figure1_panel, render_panel
from repro.harness.reporting import si
from repro.harness.runner import PORTABLE_KERNELS, simulate
from repro.harness.tables import render_table1, render_table2, table1, table2
from repro.obs import audit_trace
from repro.resilient import RESILIENT_KERNELS


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (kernels / run / figure / tables / report)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for 'X10 and APGAS at Petascale' (PPoPP 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("kernels", help="list the eight kernels")

    chaos_help = (
        "fault-injection spec, e.g. 'seed=7,drop=0.05,dup=0.02,delay=0.1:2e-5,kill=5@1e-3'; "
        "switches the transport into resilient (ack/retry) mode; on "
        "--backend procs only kill=place@time applies, and it SIGKILLs the "
        "place's real OS process at that wall-clock time"
    )

    resilient_help = (
        "checkpoint/restore + elastic recovery: kills under --chaos are healed "
        "by respawning the place and re-executing only the lost epoch "
        "(on --backend procs: a freshly forked OS process); kernels: "
        + ", ".join(sorted(RESILIENT_KERNELS))
    )

    run = sub.add_parser("run", help="simulate one kernel at one scale")
    run.add_argument("kernel", choices=PORTABLE_KERNELS)
    run.add_argument("--places", type=int, default=32)
    run.add_argument(
        "--stats", action="store_true", help="print the metrics snapshot after the result"
    )
    run.add_argument("--chaos", default=None, metavar="SPEC", help=chaos_help)
    run.add_argument("--resilient", action="store_true", help=resilient_help)
    run.add_argument(
        "--backend",
        choices=["sim", "procs"],
        default=None,
        help="execution backend for the portable program: 'sim' (discrete-event "
        "simulator) or 'procs' (one OS process per place, real sockets); "
        "default runs the full simulator kernel instead",
    )
    run.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for --backend procs (kills and reaps on expiry)",
    )

    conform = sub.add_parser(
        "conform",
        help="differential conformance: run one portable kernel on the simulator "
        "and on real processes, and require identical results",
    )
    conform.add_argument("kernel", choices=PORTABLE_KERNELS)
    conform.add_argument("--places", type=int, default=4)
    conform.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the procs run",
    )

    trace = sub.add_parser("trace", help="run one kernel with event tracing and audit the trace")
    trace.add_argument("kernel", choices=PORTABLE_KERNELS)
    trace.add_argument("--places", type=int, default=32)
    trace.add_argument("--chaos", default=None, metavar="SPEC", help=chaos_help)
    trace.add_argument("--resilient", action="store_true", help=resilient_help)
    trace.add_argument("--out", default=None, help="trace output path (default trace_<kernel>_<places>)")
    trace.add_argument(
        "--format",
        choices=("chrome", "jsonl"),
        default="chrome",
        help="chrome trace_event JSON (default) or one event per line",
    )
    trace.add_argument("--no-audit", action="store_true", help="skip the protocol audit")

    serve = sub.add_parser(
        "serve",
        help="multi-tenant serving: schedule many concurrent kernel jobs on one machine",
    )
    serve.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="scenario spec JSON (default: a built-in two-tenant demo)",
    )
    serve.add_argument("--places", type=int, default=None, help="override the machine size")
    serve.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    serve.add_argument(
        "--duration", type=float, default=None, help="override the arrival window (simulated s)"
    )
    serve.add_argument("--chaos", default=None, metavar="SPEC", help=chaos_help)
    serve.add_argument(
        "--stats", action="store_true", help="print the metrics snapshot after the report"
    )
    serve.add_argument(
        "--json", action="store_true", help="machine-readable SLO report (schema v1)"
    )
    serve.add_argument(
        "--audit",
        action="store_true",
        help="run traced and gate on the protocol audit (incl. serve.isolation)",
    )

    fig = sub.add_parser("figure", help="regenerate one Figure 1 panel")
    fig.add_argument("kernel", choices=PORTABLE_KERNELS)
    fig.add_argument("--no-sim", action="store_true", help="model rows only (fast)")

    sub.add_parser("tables", help="regenerate Tables 1 and 2")
    sub.add_parser("report", help="regenerate the full EXPERIMENTS body")

    analyze = sub.add_parser(
        "analyze",
        help="static analysis: infer finish pragmas and lint for APGAS anti-patterns",
    )
    analyze.add_argument("paths", nargs="+", help="files and/or directories to analyze")
    analyze.add_argument("--json", action="store_true", help="machine-readable report")
    analyze.add_argument(
        "--sites", action="store_true", help="also list every classified finish site"
    )
    analyze.add_argument(
        "--mhp",
        action="store_true",
        help="also dump every may-happen-in-parallel statement pair the "
        "race rules reason over",
    )

    race = sub.add_parser(
        "race",
        help="dynamic determinacy-race detection: run kernels or scripts "
        "under the vector-clock happens-before checker",
    )
    race.add_argument(
        "targets",
        nargs="+",
        help="kernel names (portable program by default) and/or Python "
        "scripts to execute under forced detection",
    )
    race.add_argument("--places", type=int, default=4)
    race.add_argument(
        "--full-sim",
        action="store_true",
        help="run kernel targets through the full simulator kernel "
        "(modeled machine physics) instead of the portable program",
    )
    return parser


def main(argv=None, out=sys.stdout) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "kernels":
        for k in PORTABLE_KERNELS:
            print(k, file=out)
        return 0

    if args.command == "run":
        if args.deadline is not None and args.backend != "procs":
            print(
                "error: --deadline is implemented only for --backend procs "
                "(a simulator run has no wall-clock budget to enforce)",
                file=out,
            )
            return 2
        if args.backend is not None:
            return _run_backend(args, out)
        try:
            result = simulate(
                args.kernel, args.places, chaos=args.chaos, resilient=args.resilient
            )
        except _RUN_ERRORS as exc:
            return _report_run_error(args, exc, out)
        print(f"kernel        : {result.kernel}", file=out)
        print(f"places        : {result.places}", file=out)
        print(f"simulated time: {result.sim_time:.6f} s", file=out)
        print(f"aggregate     : {si(result.value, result.unit)}", file=out)
        per = si(result.per_core, result.unit)
        print(f"per core/host : {per}", file=out)
        if result.verified is not None:
            print(f"verified      : {result.verified}", file=out)
        checksum = result.extra.get("checksum")
        if checksum is not None:
            print(f"checksum      : {checksum}", file=out)
        chaos = result.extra.get("chaos")
        if chaos is not None:
            snap = result.extra["metrics"]
            dead = sorted(chaos.dead_places)
            print(
                f"chaos         : {int(snap.total('chaos.drops'))} drops, "
                f"{int(snap.total('chaos.duplicates'))} dups, "
                f"{int(snap.total('chaos.delays'))} delays, "
                f"{int(snap.total('transport.retry.count'))} retries; "
                f"dead places {dead if dead else 'none'}",
                file=out,
            )
        if args.resilient:
            snap = result.extra["metrics"]
            print(
                f"resilient     : "
                f"{int(snap.total('resilient.epochs_committed'))} epochs committed, "
                f"{int(snap.total('resilient.epochs_aborted'))} aborted, "
                f"{int(snap.total('resilient.recoveries'))} recoveries, "
                f"{int(snap.total('chaos.place_revivals'))} places revived",
                file=out,
            )
        if args.stats:
            _print_metrics(result.extra["metrics"], out)
        return 0 if result.verified is not False else 1

    if args.command == "conform":
        from repro.xrt.conformance import run_conformance

        try:
            report = run_conformance(
                args.kernel, args.places, deadline=args.deadline
            )
        except _RUN_ERRORS as exc:
            return _report_run_error(args, exc, out)
        print(report.render(), file=out)
        return 0 if report.conformant else 1

    if args.command == "trace":
        ext = "json" if args.format == "chrome" else "jsonl"
        path = args.out or f"trace_{args.kernel}_{args.places}.{ext}"
        existed = os.path.exists(path)
        try:
            open(path, "a").close()  # fail now, not after the whole simulation
        except OSError as exc:
            print(f"error: cannot write the trace to {path}: {exc.strerror}", file=out)
            return 2
        if not existed:
            os.remove(path)  # a run that then fails leaves nothing behind
        try:
            result = simulate(
                args.kernel, args.places, trace=True, chaos=args.chaos,
                resilient=args.resilient,
            )
        except _RUN_ERRORS as exc:
            return _report_run_error(args, exc, out)
        tracer = result.extra["trace"]
        if args.format == "chrome":
            tracer.export_chrome(path)
        else:
            tracer.export_jsonl(path)
        print(f"kernel        : {result.kernel}", file=out)
        print(f"places        : {result.places}", file=out)
        print(f"simulated time: {result.sim_time:.6f} s", file=out)
        print(f"trace         : {len(tracer.events)} events -> {path}", file=out)
        if args.no_audit:
            return 0
        report = audit_trace(tracer, places=args.places)
        print(report.render(), file=out)
        return 0 if report.passed else 1

    if args.command == "figure":
        panel = figure1_panel(args.kernel, include_sim=not args.no_sim)
        print(render_panel(panel), file=out)
        return 0

    if args.command == "tables":
        print(render_table1(table1()), file=out)
        print(file=out)
        print(render_table2(table2()), file=out)
        return 0

    if args.command == "report":
        from repro.harness.report import generate

        generate(out)
        return 0

    if args.command == "serve":
        return _cmd_serve(args, out)

    if args.command == "analyze":
        return _cmd_analyze(args, out)

    if args.command == "race":
        return _cmd_race(args, out)

    raise AssertionError("unreachable")


#: what a kernel run (``run``, ``run --backend``, ``trace``, ``conform``) can
#: raise that is not a bug: the user's input (a bad chaos spec, kernel
#: parameter or place count), or a run that started and then died or ran out
#: of time
_USAGE_ERRORS = (ChaosError, KernelError, PlaceError)
_RUN_ERRORS = _USAGE_ERRORS + (ProcsError, DeadPlaceError, ResilientError)


def _report_run_error(args, exc, out) -> int:
    """Print one of :data:`_RUN_ERRORS` and return its exit code: an
    ``error:`` line and 2 for a usage error, the kernel/places block and 1
    for a failed run."""
    if isinstance(exc, _USAGE_ERRORS):
        what = "bad --chaos spec: " if isinstance(exc, ChaosError) else ""
        print(f"error: {what}{exc}", file=out)
        return 2
    verdict = "timed out" if isinstance(exc, ProcsTimeoutError) else "failed"
    print(f"kernel        : {args.kernel}", file=out)
    print(f"places        : {args.places}", file=out)
    print(f"{verdict:<14}: {exc}", file=out)
    return 1


def _run_backend(args, out) -> int:
    """``repro run <kernel> --backend {sim,procs}``: one portable-program run."""
    from repro.xrt.backend import get_backend

    if (args.chaos or args.resilient) and args.backend != "procs":
        print(
            "error: on --backend runs, --chaos and --resilient are implemented "
            "only for --backend procs (real process kills and respawns)",
            file=out,
        )
        return 2
    if args.stats and args.backend == "procs":
        print(
            "error: --stats is implemented only for --backend sim (the procs "
            "backend has no metrics registry to snapshot)",
            file=out,
        )
        return 2
    try:
        if args.backend == "procs":
            backend = get_backend(
                "procs", deadline=args.deadline,
                chaos=args.chaos, resilient=args.resilient,
            )
        else:
            backend = get_backend(args.backend)
        run = backend.run(args.kernel, args.places)
    except _RUN_ERRORS as exc:
        return _report_run_error(args, exc, out)
    print(f"kernel        : {run.kernel}", file=out)
    print(f"places        : {run.places}", file=out)
    print(f"backend       : {run.backend}", file=out)
    if run.sim_time is not None:
        print(f"simulated time: {run.sim_time:.6f} s", file=out)
    print(f"wall time     : {run.wall_time:.3f} s", file=out)
    ctl = ", ".join(f"{k}={v}" for k, v in sorted(run.ctl_by_pragma.items()))
    print(f"finish ctl    : {ctl}", file=out)
    if run.backend == "procs":
        print(f"routed        : {run.messages_routed} messages, {run.bytes_routed} bytes, "
              f"{run.socket_writes} writes, {run.socket_reads} reads", file=out)
    if args.chaos or args.resilient:
        dead = ", ".join(f"{d['place']}@{d['time']:g}s" for d in run.deaths) or "none"
        print(f"chaos         : {run.chaos or 'none'}", file=out)
        print(f"deaths        : {dead} ({run.deaths_tolerated} finish write-offs)", file=out)
        print(f"recovery      : {run.revivals} respawns, {run.frames_dropped} frames dropped", file=out)
    nodes = run.result.get("nodes") if isinstance(run.result, dict) else None
    if nodes is not None:
        print(f"nodes         : {nodes}", file=out)
    print(f"checksum      : {run.checksum}", file=out)
    if args.stats:
        _print_metrics(run.metrics, out)
    return 0


def _print_metrics(snap, out) -> None:
    """The ``--stats`` block shared by ``run``, ``run --backend sim`` and ``serve``."""
    print(file=out)
    print("-- metrics --", file=out)
    print(f"network msgs  : {int(snap.total('net.messages'))}", file=out)
    print(f"network bytes : {int(snap.total('net.bytes'))}", file=out)
    print(f"finish ctl    : {int(snap.total('finish.ctl_messages'))} msgs, "
          f"{int(snap.total('finish.ctl_bytes'))} bytes", file=out)
    print(f"steals        : {int(snap.total('glb.steal_attempts'))} attempts, "
          f"{int(snap.total('glb.steals_ok'))} ok", file=out)
    print(f"deaths        : {int(snap.total('finish.deaths_tolerated'))} tolerated",
          file=out)
    depth = snap.get("serve.queue_depth", None)
    if isinstance(depth, dict) and depth.get("count"):
        print(f"queue depth   : max {int(depth['max'])}, mean {depth['mean']:.2f}",
              file=out)
    print(snap.render(), file=out)


def _cmd_serve(args, out) -> int:
    """Run one serving scenario.

    Exit codes: 0 — scenario completed (and, with ``--audit``, the protocol
    audit passed); 1 — jobs aborted without fault injection to blame, a place
    death escaped the scheduler, or the audit failed; 2 — malformed scenario
    spec or chaos spec.
    """
    import json as _json
    from dataclasses import replace

    from repro.errors import ServeError
    from repro.serve import load_scenario, quick_scenario, run_scenario

    try:
        spec = load_scenario(args.scenario) if args.scenario else quick_scenario()
        overrides = {}
        if args.places is not None:
            if args.places < 3:
                raise ServeError(
                    f"--places must be >= 3 (one control place plus a pool), "
                    f"got {args.places}"
                )
            overrides["places"] = args.places
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.duration is not None:
            if args.duration <= 0:
                raise ServeError(f"--duration must be > 0, got {args.duration}")
            overrides["duration"] = args.duration
        if args.chaos is not None:
            overrides["chaos"] = args.chaos
        if overrides:
            spec = replace(spec, **overrides)
        report, outcome, rt = run_scenario(spec, trace=args.audit)
    except ServeError as exc:
        print(f"error: {exc}", file=out)
        return 2
    except ChaosError as exc:
        print(f"error: bad chaos spec: {exc}", file=out)
        return 2
    except DeadPlaceError as exc:
        print(f"serve failed  : {exc}", file=out)
        return 1

    if args.json:
        print(_json.dumps(report.to_json(), indent=2, sort_keys=True), file=out)
    else:
        print(report.render(), file=out)
        print(report.summary_line(), file=out)
    if args.stats:
        _print_metrics(rt.obs.metrics.snapshot(), out)

    rc = 0
    if args.audit:
        audit = audit_trace(rt.obs.trace, places=spec.places)
        if not args.json or not audit.passed:
            print(audit.render(), file=out)
        if not audit.passed:
            rc = 1
    if rt.chaos is None and report.aborted:
        # aborts with no fault injection mean the scheduler broke a job
        rc = 1
    return rc


def _cmd_analyze(args, out) -> int:
    """Run the static analyzer over files/directories.

    Exit codes: 0 — clean (every finding fixed or `# noqa`-suppressed);
    1 — findings; 2 — usage error (missing path, unparsable source).
    """
    from repro.analyze import analyze_paths
    from repro.analyze.report import render_text, write_json
    from repro.errors import AnalyzeError

    try:
        result = analyze_paths(args.paths)
    except AnalyzeError as exc:
        print(f"error: {exc}", file=out)
        return 2
    if args.json:
        write_json(result, out)
    else:
        render_text(result, out, show_sites=args.sites)
    if args.mhp:
        from repro.analyze.mhp import MhpAnalysis

        lines = MhpAnalysis(result.program).render_pairs()
        print(file=out)
        print(f"-- may-happen-in-parallel: {len(lines)} pair(s) --", file=out)
        for line in lines:
            print(line, file=out)
    return 1 if result.findings else 0


def _cmd_race(args, out) -> int:
    """Run targets under the dynamic race detector.

    A target is a shipped kernel name (run as its portable program, or the
    full simulator kernel with ``--full-sim``) or a path to a Python script,
    which is executed with detection forced on every runtime it builds.

    Exit codes: 0 — every target race-free; 1 — at least one race detected
    (each is printed); 2 — usage error (unknown target, missing script or
    a directory).
    """
    import os

    from repro.runtime import racedetect

    total = 0
    for target in args.targets:
        if target.endswith(".py") or os.sep in target:
            if not os.path.isfile(target):
                print(f"error: no such script: {target}", file=out)
                return 2
            races = [
                race
                for det in racedetect.run_script(target)
                for race in det.races
            ]
            label = target
        elif target in PORTABLE_KERNELS:
            label = f"{target}@{args.places}"
            try:
                if args.full_sim:
                    result = simulate(target, args.places, race=True)
                    races = result.extra["race"].races
                else:
                    from repro.kernels.portable import build_program
                    from repro.runtime.runtime import ApgasRuntime

                    rt = ApgasRuntime(places=args.places, race=True)
                    rt.run(build_program(target, args.places))
                    races = rt.race.races
            except (KernelError, PlaceError, DeadPlaceError) as exc:
                print(f"error: {label}: {exc}", file=out)
                return 2
        else:
            print(
                f"error: unknown target {target!r} (not a kernel or a .py script)",
                file=out,
            )
            return 2
        if races:
            total += len(races)
            print(f"{label}: {len(races)} race(s)", file=out)
            for race in races:
                print(f"  {race.describe()}", file=out)
        else:
            print(f"{label}: clean", file=out)
    return 1 if total else 0


if __name__ == "__main__":
    raise SystemExit(main())
