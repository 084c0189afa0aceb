"""Differential conformance: the same program, every backend, equal answers.

The methodology (DESIGN.md §12): a portable kernel program is executed on
two independent implementations of the execution seam — the discrete-event
simulator and the one-process-per-place backend — and the runs must agree on

* the **result payload** bit-for-bit (numpy arrays compared by exact bytes,
  floats by equality, containers recursively),
* the **checksum** (the short digest kernels publish), and
* the **finish-protocol control-message counts per pragma** — the two
  backends implement termination detection over completely different
  transports, so equal counts are strong evidence both implement the same
  protocol, not merely protocols that reach the same answer.

Intentionally *not* compared: timing (virtual vs wall), message byte volume
(live references vs pickles), and work placement (UTS steal interleavings
differ; only the totals are invariant).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.xrt.backend import BackendRun, get_backend


def deep_equal(a: Any, b: Any, path: str = "$", diffs: Optional[List[str]] = None) -> List[str]:
    """Collect human-readable paths where ``a`` and ``b`` differ (bitwise).

    Dict keys starting with ``"_"`` are per-run diagnostics (e.g. UTS's
    ``_per_place`` work placement, which steal timing makes backend-variant)
    and are skipped.
    """
    if diffs is None:
        diffs = []
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and np.array_equal(a, b)
        ):
            diffs.append(f"{path}: arrays differ")
        return diffs
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=repr):
            if isinstance(key, str) and key.startswith("_"):
                continue
            if key not in a or key not in b:
                diffs.append(f"{path}[{key!r}]: present on one side only")
            else:
                deep_equal(a[key], b[key], f"{path}[{key!r}]", diffs)
        return diffs
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            diffs.append(f"{path}: length {len(a)} != {len(b)}")
            return diffs
        for i, (x, y) in enumerate(zip(a, b)):
            deep_equal(x, y, f"{path}[{i}]", diffs)
        return diffs
    if a != b or type(a) is not type(b):
        diffs.append(f"{path}: {a!r} != {b!r}")
    return diffs


@dataclass
class ConformanceReport:
    """The verdict of one differential run."""

    kernel: str
    places: int
    runs: List[BackendRun]
    #: every disagreement found, as ``"<aspect> <path>: ..."`` strings
    diffs: List[str] = field(default_factory=list)

    @property
    def conformant(self) -> bool:
        return not self.diffs

    def render(self) -> str:
        head = f"conformance {self.kernel} places={self.places}: "
        lines = [head + ("PASS" if self.conformant else "FAIL")]
        for run in self.runs:
            ctl = ", ".join(f"{k}={v}" for k, v in sorted(run.ctl_by_pragma.items()))
            lines.append(
                f"  {run.backend:5s} wall={run.wall_time:.3f}s "
                f"checksum={run.checksum} ctl[{ctl}]"
            )
        lines.extend(f"  DIFF {d}" for d in self.diffs)
        return "\n".join(lines)


def run_conformance(
    kernel: str,
    places: int,
    backends: Sequence[str] = ("sim", "procs"),
    deadline: Optional[float] = None,
    **params: Any,
) -> ConformanceReport:
    """Run ``kernel`` on every backend and diff the runs against the first."""
    runs = []
    for name in backends:
        backend = get_backend(name, deadline=deadline) if name == "procs" else get_backend(name)
        runs.append(backend.run(kernel, places, **params))
    reference, diffs = runs[0], []
    for other in runs[1:]:
        tag = f"[{reference.backend} vs {other.backend}]"
        if reference.checksum != other.checksum:
            diffs.append(
                f"{tag} checksum: {reference.checksum} != {other.checksum}"
            )
        diffs.extend(
            f"{tag} ctl {d}"
            for d in deep_equal(reference.ctl_by_pragma, other.ctl_by_pragma)
        )
        diffs.extend(
            f"{tag} result {d}" for d in deep_equal(reference.result, other.result)
        )
    return ConformanceReport(kernel=kernel, places=places, runs=runs, diffs=diffs)


def run_recovery_conformance(
    kernel: str,
    places: int,
    chaos: str,
    deadline: Optional[float] = None,
    **params: Any,
) -> ConformanceReport:
    """Fault-free procs run vs killed-and-recovered procs run: equal answers.

    The wall-clock acceptance gate of the resilient procs backend: a run that
    loses a real OS process (``chaos`` kills it mid-flight) and heals through
    respawn + checkpoint/restore must land on the *identical* result payload
    and checksum as the plain run that never saw a fault.  Control-message
    counts are intentionally not compared — recovery traffic (restore waves,
    retried epochs) is extra protocol by design; ``_``-prefixed result keys
    (recovery stats, work placement) are skipped by :func:`deep_equal`.
    """
    plain = get_backend("procs", deadline=deadline)
    faulty = get_backend("procs", deadline=deadline, chaos=chaos, resilient=True)
    runs = [
        plain.run(kernel, places, **params),
        faulty.run(kernel, places, **params),
    ]
    reference, recovered = runs
    tag = "[fault-free vs recovered]"
    diffs = []
    if reference.checksum != recovered.checksum:
        diffs.append(f"{tag} checksum: {reference.checksum} != {recovered.checksum}")
    diffs.extend(
        f"{tag} result {d}" for d in deep_equal(reference.result, recovered.result)
    )
    if not recovered.deaths:
        diffs.append(f"{tag} chaos run saw no death: the kill never landed")
    return ConformanceReport(kernel=kernel, places=places, runs=runs, diffs=diffs)


def assert_conformant(
    kernel: str,
    places: int,
    backends: Sequence[str] = ("sim", "procs"),
    deadline: Optional[float] = None,
    **params: Any,
) -> ConformanceReport:
    """:func:`run_conformance`, raising ``AssertionError`` on any difference."""
    report = run_conformance(
        kernel, places, backends=backends, deadline=deadline, **params
    )
    if not report.conformant:
        raise AssertionError(report.render())
    return report
