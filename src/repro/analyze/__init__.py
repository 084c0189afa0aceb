"""repro.analyze — whole-program APGAS static analyzer and lint framework.

Three layers:

- :mod:`repro.analyze.sourcemodel` / :mod:`repro.analyze.callgraph` — parse
  modules into lexical scopes and extract spawn sites and the call graph.
- :mod:`repro.analyze.infer` — interprocedural finish-pragma inference (the
  whole-program upgrade of the paper's prototype compiler analysis).
- :mod:`repro.analyze.rules` / :mod:`repro.analyze.apgas_rules` — the lint
  framework and the APGAS anti-pattern catalogue (APG101..APG106, APG108..APG110).
- :mod:`repro.analyze.effects` / :mod:`repro.analyze.mhp` — read/write
  effect extraction and the may-happen-in-parallel decomposition behind the
  determinacy-race rules (APG108..APG110).

:func:`analyze_paths` is the one-call entry point used by ``repro analyze``;
:mod:`repro.analyze.agreement` replays suggestions against the runtime's
fork validation on the shipped kernels, and
:mod:`repro.analyze.race_agreement` checks that every race the dynamic
vector-clock detector observes was statically predicted.
"""

from repro.analyze.agreement import check_agreement, record_finish_sites, replay
from repro.analyze.driver import AnalyzeResult, analyze_paths
from repro.analyze.effects import Access, EffectIndex
from repro.analyze.infer import Inference, SiteClassification, classify_program
from repro.analyze.mhp import MhpAnalysis
from repro.analyze.race_agreement import RaceAgreement, check_race_agreement
from repro.analyze.rules import REGISTRY, Finding, Severity, rule, run_rules
from repro.analyze.sourcemodel import Program, iter_python_files

__all__ = [
    "Access",
    "AnalyzeResult",
    "EffectIndex",
    "Finding",
    "Inference",
    "MhpAnalysis",
    "Program",
    "RaceAgreement",
    "REGISTRY",
    "Severity",
    "SiteClassification",
    "analyze_paths",
    "check_agreement",
    "check_race_agreement",
    "classify_program",
    "iter_python_files",
    "record_finish_sites",
    "replay",
    "rule",
    "run_rules",
]
