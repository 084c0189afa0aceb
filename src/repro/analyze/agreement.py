"""Static-vs-dynamic agreement: replay analyzer suggestions against the
runtime's fork validation.

The recorder patches :meth:`FinishScope.__enter__` so every finish opened
during a simulation remembers where it was opened (file, line — the same
coordinates the static analyzer reports) and which forks it governed.  The
checker then classifies each recorded site statically and replays the
recorded fork sequence through the *suggested* pragma's entry in
:data:`~repro.runtime.finish.pragmas.FORK_RULES`, the rule both finish cores
enforce: a suggestion the runtime would reject with
:class:`~repro.errors.PragmaError` is a disagreement.  This is the
"suggestions agree with runtime validation" acceptance gate run over all
shipped kernels.
"""

from __future__ import annotations

import contextlib
import os
import sys
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.analyze.infer import Inference, SiteClassification
from repro.analyze.sourcemodel import Program
from repro.errors import PragmaError
from repro.runtime import activity
from repro.runtime.finish.pragmas import FORK_RULES, Pragma


@dataclass
class RuntimeSite:
    """One finish instance observed at runtime."""

    path: str
    lineno: int
    pragma: Pragma
    home: int
    forks: list = field(default_factory=list)  # (src, dst) in fork order


@contextlib.contextmanager
def record_finish_sites() -> Iterator[list]:
    """Patch FinishScope.__enter__ to record every finish's site and forks."""
    records: list[RuntimeSite] = []
    orig_enter = activity.FinishScope.__enter__

    def patched(self):
        frame = sys._getframe(1)
        fin = orig_enter(self)
        rec = RuntimeSite(
            path=frame.f_code.co_filename,
            lineno=frame.f_lineno,
            pragma=fin.pragma,
            home=fin.home,
        )
        records.append(rec)
        orig_fork = fin.fork

        def fork(src: int, dst: int) -> None:
            rec.forks.append((src, dst))
            return orig_fork(src, dst)

        fin.fork = fork
        return fin

    activity.FinishScope.__enter__ = patched
    try:
        yield records
    finally:
        activity.FinishScope.__enter__ = orig_enter


def replay(pragma: Pragma, home: int, forks: list, name: str = "replay") -> Optional[str]:
    """Drive the fork sequence through ``pragma``'s legality rule.

    Returns None on success, or the PragmaError message on rejection.
    """
    rule = FORK_RULES.get(pragma)
    if rule is None:
        return None
    for total_forks, (_src, dst) in enumerate(forks):
        try:
            rule(name, home, total_forks, dst)
        except PragmaError as exc:
            return str(exc)
    return None


@dataclass
class AgreementRecord:
    """The verdict for one runtime finish site under one kernel."""

    kernel: str
    path: str
    lineno: int
    annotated: Pragma
    suggestion: Optional[Pragma]  # None when the site could not be classified
    forks: int
    error: Optional[str]  # replay failure message, None when in agreement

    @property
    def ok(self) -> bool:
        return self.error is None


class _SiteIndex:
    """Lazy static classification of whatever files the runtime touched."""

    def __init__(self) -> None:
        self.program = Program()
        self._inference: Optional[Inference] = None
        self._classified: dict[str, dict[int, SiteClassification]] = {}

    def lookup(self, path: str, lineno: int) -> Optional[SiteClassification]:
        path = os.path.abspath(path)
        if path not in self._classified:
            if not os.path.exists(path):
                self._classified[path] = {}
            else:
                module = self.program.add_file(path)
                # new module: resolution tables changed, drop memoized closures
                self._inference = Inference(self.program)
                self._classified[path] = {
                    c.lineno: c for c in self._inference.classify_module(module)
                }
        return self._classified[path].get(lineno)


def check_kernel(kernel: str, places: int = 4, index: Optional[_SiteIndex] = None) -> list:
    """Run one kernel, classify every finish site it opened, and replay the
    recorded forks through the suggested pragma."""
    from repro.harness.runner import simulate

    index = index if index is not None else _SiteIndex()
    with record_finish_sites() as records:
        simulate(kernel, places=places)
    by_site: dict = {}
    for rec in records:
        by_site.setdefault((rec.path, rec.lineno), []).append(rec)
    out: list[AgreementRecord] = []
    for (path, lineno), recs in sorted(by_site.items()):
        c = index.lookup(path, lineno)
        error = None
        if c is not None:
            for rec in recs:  # every instance of the site must validate
                error = replay(c.suggestion, rec.home, rec.forks, name=f"{kernel}-replay")
                if error is not None:
                    break
        out.append(
            AgreementRecord(
                kernel=kernel,
                path=path,
                lineno=lineno,
                annotated=recs[0].pragma,
                suggestion=c.suggestion if c is not None else None,
                forks=max(len(r.forks) for r in recs),
                error=error,
            )
        )
    return out


def check_agreement(kernels: Optional[list] = None, places: int = 4) -> list:
    """Agreement records for every shipped kernel (the acceptance check)."""
    from repro.harness.runner import PORTABLE_KERNELS

    index = _SiteIndex()
    out: list[AgreementRecord] = []
    for kernel in kernels if kernels is not None else list(PORTABLE_KERNELS):
        out.extend(check_kernel(kernel, places=places, index=index))
    return out
