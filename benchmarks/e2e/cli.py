"""Command line of the end-to-end benchmark.

Three ways in, one measuring path (:func:`benchmarks.e2e.driver.measure`):

* ``--workload W --seed N --seconds T --trace 0|1`` — the harness contract:
  one workload, one JSON result object on the last stdout line (end-to-end
  metrics untraced, per-layer metrics from the traced pass);
* no ``--trace`` — the suite: every workload (or ``--workload W``) round-robin
  with tracing off, every metric printed by name with its unit; ``--layers``
  adds the profiled pass and the probes; ``--out F`` pools the samples into
  ``F`` for ``--compare``;
* ``--compare A.json B.json`` and ``--selftest``.

Exit status is non-zero when an operation failed a check, a comparison came
out ``worse``, or the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import sys
from pathlib import Path

from benchmarks.e2e import driver


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=driver.WORKLOADS, help="measure only this workload")
    p.add_argument("--seed", type=int, default=0, help="seeds every input (default 0)")
    p.add_argument("--seconds", type=float, default=float(driver.SPEC["run_seconds"]),
                   help="timed seconds per workload (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="contract mode: print the result object for end-to-end (0) "
                        "or per-layer (1) metrics of --workload")
    p.add_argument("--layers", action="store_true",
                   help="suite mode: also run the profiled pass and the probes")
    p.add_argument("--out", metavar="FILE", help="suite mode: pool samples into FILE (appends)")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                   help="compare two --out files; exits non-zero on 'worse'")
    p.add_argument("--selftest", action="store_true", help="tiny sizes of everything, with checks")
    # the driver's own children
    p.add_argument("--child", choices=("plain", "profile", "probes"), help=argparse.SUPPRESS)
    p.add_argument("--t-spawn", type=float, default=0.0, help=argparse.SUPPRESS)
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    return p


def _print_suite(results: dict, layers: bool) -> None:
    for name, samples in results.items():
        print(f"\n{name}: {samples.attempted} operations attempted, {samples.failed} failed")
        for line in samples.failures[:10]:
            print(f"  FAILED {line}")
        for metric, spec in driver.END_TO_END.items():
            values = samples.samples[metric]
            q1, q2, q3 = driver.quartiles(values)
            print(f"  {metric:<44} {q2:>14.6g} {spec['unit']:<8} "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
        if layers and name.startswith("procs_"):
            print("  (layer.* below is place 0 only, which is also the router every frame crosses;"
                  " place processes inherit the profiler hook, so all of them run slowed)")
        for metric, value in samples.per_layer().items():
            if value:  # 0: the workload does not exercise this layer
                print(f"  {metric:<44} {value:>14.6g} {driver.PER_LAYER[metric]['unit']}")


def _write_out(path: str, results: dict, args) -> None:
    """Pool this run's samples into ``path`` (created, or extended if it exists)."""
    file = Path(path)
    data = json.loads(file.read_text()) if file.exists() else {"workloads": {}}
    data["machine"] = {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "platform": platform.platform()}
    data["seconds"], data["seed"] = args.seconds, args.seed
    for name, samples in results.items():
        entry = data["workloads"].setdefault(
            name, {"samples": {}, "attempted": 0, "failed": 0, "per_layer": {}})
        for metric, values in samples.samples.items():
            entry["samples"].setdefault(metric, []).extend(values)
        entry["attempted"] += samples.attempted
        entry["failed"] += samples.failed
        entry["per_layer"].update({k: v for k, v in samples.per_layer().items() if v})
        entry["summary"] = {
            metric: dict(zip(("q1", "median", "q3"), driver.quartiles(values)), n=len(values))
            for metric, values in entry["samples"].items()
        }
    file.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        from benchmarks.e2e.compare import compare_files

        return compare_files(*args.compare)
    if args.selftest:
        from benchmarks.e2e.selftest import run_selftest

        return run_selftest()
    if importlib.util.find_spec("repro") is None:
        print("benchmarks.e2e: the repro package is not importable "
              "(run from a checkout that has src/repro)", file=sys.stderr)
        return 2
    if args.child:
        from benchmarks.e2e.child import main as child_main

        return child_main(args)

    contract = args.trace is not None
    if contract and args.workload is None:
        print("benchmarks.e2e: --trace needs --workload", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else driver.WORKLOADS
    traced = bool(args.trace) if contract else args.layers
    # the traced contract run spends its time on the profiled child and the
    # probes; its one untraced child times a single repetition
    rounds, seconds = (1, 0.0) if contract and traced else (driver.ROUNDS, args.seconds)
    try:
        results = driver.measure(
            workloads, args.seed, seconds, rounds=rounds, layers=traced,
            log=None if contract else lambda line: print(line, file=sys.stderr),
        )
    except driver.ChildFailed as exc:
        print(f"benchmarks.e2e: {exc}", file=sys.stderr)
        return 1
    failed = sum(s.failed for s in results.values())
    if contract:
        samples = results[args.workload]
        for line in samples.failures[:20]:
            print(f"FAILED {line}")
        print(driver.contract_line(samples, traced))
        return 0
    _print_suite(results, traced)
    if args.out:
        _write_out(args.out, results, args)
    return 1 if failed else 0
