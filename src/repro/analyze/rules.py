"""The lint-rule framework: registry, severities, suppression.

Rules are small functions registered with the :func:`rule` decorator.  Each
receives a :class:`RuleContext` (the analyzed :class:`Program` plus every
finish-site classification) and yields :class:`Finding` objects.  The driver
then applies per-line suppression comments (``# noqa`` or ``# noqa:
APG104``), the one way to silence a finding; every other finding gates.
"""

from __future__ import annotations

import enum
import os
import re
from dataclasses import dataclass
from typing import Callable, Optional

from repro.analyze.sourcemodel import Program, SourceModule
from repro.errors import AnalyzeError


class Severity(enum.IntEnum):
    """Finding severity; both levels gate."""

    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass
class Finding:
    """One rule violation at one source line."""

    rule: str
    severity: Severity
    path: str
    lineno: int
    message: str
    source: str  # the offending source line, stripped

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.label,
            "path": os.path.relpath(self.path).replace(os.sep, "/"),
            "line": self.lineno,
            "message": self.message,
            "source": self.source,
        }


@dataclass(frozen=True)
class RuleInfo:
    """A registered lint rule."""

    code: str  # e.g. "APG101"
    name: str  # kebab-case, e.g. "pragma-mismatch"
    severity: Severity
    doc: str
    fn: Callable


#: code -> RuleInfo, populated by the @rule decorator
REGISTRY: dict[str, RuleInfo] = {}


def rule(code: str, name: str, severity: Severity):
    """Register a rule function ``fn(ctx) -> Iterable[Finding]``."""

    def deco(fn: Callable) -> Callable:
        if code in REGISTRY:
            raise AnalyzeError(f"duplicate rule code {code}")
        REGISTRY[code] = RuleInfo(code, name, severity, (fn.__doc__ or "").strip(), fn)
        return fn

    return deco


class RuleContext:
    """Everything a rule may inspect."""

    def __init__(self, program: Program, classifications: list) -> None:
        self.program = program
        #: every SiteClassification, all modules, source order per module
        self.classifications = classifications
        self._by_path = {m.path: m for m in program.modules}
        self._mhp = None

    @property
    def mhp(self):
        """Lazily-built :class:`repro.analyze.mhp.MhpAnalysis` shared across
        the race rules (APG108..APG110)."""
        if self._mhp is None:
            from repro.analyze.mhp import MhpAnalysis

            self._mhp = MhpAnalysis(self.program)
        return self._mhp

    def module(self, path: str) -> Optional[SourceModule]:
        return self._by_path.get(path)

    def finding(
        self, info: RuleInfo, module: SourceModule, lineno: int, message: str
    ) -> Finding:
        return Finding(
            rule=info.code,
            severity=info.severity,
            path=module.path,
            lineno=lineno,
            message=message,
            source=module.line(lineno).strip(),
        )


# -- suppression -----------------------------------------------------------------

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9,\s]+))?", re.IGNORECASE)


def is_suppressed(finding: Finding, module: SourceModule) -> bool:
    """True when the finding's line carries a matching ``# noqa`` comment."""
    m = _NOQA_RE.search(module.line(finding.lineno))
    if m is None:
        return False
    codes = m.group("codes")
    if codes is None:
        return True  # bare `# noqa` silences every rule on the line
    wanted = {c.strip().upper() for c in codes.split(",") if c.strip()}
    return finding.rule.upper() in wanted


def run_rules(program: Program, classifications: list) -> list:
    """Run every registered rule and return the surviving findings,
    suppressions applied, sorted by location."""
    # rule modules register themselves on import
    import repro.analyze.apgas_rules  # noqa: F401

    ctx = RuleContext(program, classifications)
    findings: list[Finding] = []
    for code in sorted(REGISTRY):
        info = REGISTRY[code]
        findings.extend(info.fn(ctx, info))
    out = []
    for f in findings:
        module = ctx.module(f.path)
        if module is not None and is_suppressed(f, module):
            continue
        out.append(f)
    out.sort(key=lambda f: (f.path, f.lineno, f.rule))
    return out

