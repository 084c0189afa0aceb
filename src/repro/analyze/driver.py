"""The analyzer driver: load sources, infer pragmas, run the rules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.analyze.infer import classify_program
from repro.analyze.rules import run_rules
from repro.analyze.sourcemodel import Program


@dataclass
class AnalyzeResult:
    """Everything one analyzer run produced."""

    program: Program
    sites: list  # SiteClassification, grouped by file in source order
    findings: list  # every finding not suppressed by `# noqa`; each one gates


def analyze_paths(paths: Iterable[str]) -> AnalyzeResult:
    """Analyze files/directories and return sites + findings.

    Raises :class:`~repro.errors.AnalyzeError` on a missing path or
    unparsable source (the CLI maps that to exit code 2).
    """
    program = Program.from_paths(paths)
    sites = classify_program(program)
    return AnalyzeResult(program, sites, run_rules(program, sites))
