"""Static-vs-dynamic race agreement: every race the vector-clock detector
observes must be a pair the MHP analysis predicted.

The two layers over-approximate in the same direction — the dynamic detector
reports happens-before violations on the schedule that actually ran, while
:class:`~repro.analyze.mhp.MhpAnalysis` reports every statement pair that
*may* run in parallel on any schedule.  Dynamic ⊆ static is therefore the
soundness contract between them (the analogue of the pragma layer's
:mod:`repro.analyze.agreement`): a dynamic race the static analysis did not
predict means one of the layers models the finish/async/at structure wrong.

``check_race_agreement`` runs the shipped kernels (which must be race-free)
plus any seeded racy fixtures, and verifies the contract per target.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.analyze.mhp import MhpAnalysis
from repro.analyze.sourcemodel import Program, iter_python_files
from repro.runtime import racedetect


@dataclass
class RaceAgreement:
    """The verdict for one executed target (kernel or fixture script)."""

    target: str
    races: int           #: dynamic race reports observed
    pairs: int           #: distinct dynamic (path, line) race pairs
    unpredicted: list = field(default_factory=list)  #: pairs MHP missed

    @property
    def ok(self) -> bool:
        return not self.unpredicted


def _program_for(paths, pairs) -> Program:
    """Analyze the given paths plus every file a dynamic race names."""
    wanted: list[str] = []
    seen: set[str] = set()
    for path in paths:
        ap = os.path.abspath(path)
        if ap in seen or not os.path.exists(ap):
            continue
        seen.add(ap)
        wanted.append(ap)
    for pair in pairs:
        for fpath, _line in pair:
            ap = os.path.abspath(fpath)
            if ap not in seen and os.path.exists(ap):
                seen.add(ap)
                wanted.append(ap)
    program = Program()
    for fpath in iter_python_files(wanted):
        program.add_file(fpath)
    return program


def check_pairs(target: str, pairs: set, paths) -> RaceAgreement:
    """Verify a set of dynamic race pairs against the MHP prediction built
    from ``paths`` (files or directories) plus the racing files themselves."""
    mhp = MhpAnalysis(_program_for(paths, pairs))
    unpredicted = []
    for pair in sorted(pairs, key=sorted):
        items = sorted(pair)
        a, b = items[0], items[-1]  # singleton pair: a statement races itself
        if not mhp.predicts(a, b):
            unpredicted.append((a, b))
    return RaceAgreement(
        target=target, races=len(pairs), pairs=len(pairs), unpredicted=unpredicted
    )


def check_kernel(kernel: str, places: int = 4) -> RaceAgreement:
    """Run one full-simulator kernel under the dynamic detector and verify
    the contract.  Kernels are race-free, so this also asserts cleanliness."""
    from repro.harness.runner import simulate

    result = simulate(kernel, places, race=True)
    detector = result.extra["race"]
    pairs = set(detector.race_pairs())
    record = check_pairs(kernel, pairs, [_kernels_dir()])
    record.races = len(detector.races)
    return record


def check_script(path: str) -> RaceAgreement:
    """Run a racy fixture script under forced detection and verify that every
    dynamic race it produces was statically predicted."""
    detectors = racedetect.run_script(path)
    pairs: set = set()
    races = 0
    for det in detectors:
        pairs.update(det.race_pairs())
        races += len(det.races)
    record = check_pairs(os.path.basename(path), pairs, [path])
    record.races = races
    return record


def _kernels_dir() -> str:
    import repro.kernels

    return os.path.dirname(os.path.abspath(repro.kernels.__file__))


def check_race_agreement(kernels=None, fixtures=None, places: int = 4) -> list:
    """Agreement records for the shipped kernels plus any fixture scripts —
    the acceptance gate of the race-detection tentpole."""
    from repro.harness.runner import PORTABLE_KERNELS

    out: list[RaceAgreement] = []
    for kernel in kernels if kernels is not None else list(PORTABLE_KERNELS):
        out.append(check_kernel(kernel, places=places))
    for path in fixtures or ():
        out.append(check_script(path))
    return out
