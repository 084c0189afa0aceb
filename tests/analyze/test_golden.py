"""Golden-file test: analyzing the shipped kernels and examples must
reproduce the recorded per-site suggestions exactly, with zero findings."""

import json
import os

from repro.analyze import analyze_paths
from repro.analyze.report import render_json
from repro.runtime.finish.pragmas import Pragma

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
GOLDEN = os.path.join(os.path.dirname(__file__), "golden_sites.json")

KERNELS = os.path.join(REPO, "src", "repro", "kernels")
EXAMPLES = os.path.join(REPO, "examples")


def analyzed():
    result = analyze_paths([KERNELS, EXAMPLES])
    return result, render_json(result)


def normalize(site: dict) -> dict:
    site = dict(site)
    site["path"] = os.path.relpath(site["path"], REPO)
    return site


def test_clean_tree_matches_golden_sites():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    _, payload = analyzed()
    got = [normalize(s) for s in payload["sites"]]
    want = [normalize(s) for s in golden["sites"]]
    assert got == want, (
        "analyzer output drifted from tests/analyze/golden_sites.json; "
        "regenerate it if the change is intentional (see the file's comment)"
    )


def test_clean_tree_has_zero_findings():
    result, _ = analyzed()
    assert result.findings == []


#: the one annotated site whose pragma the analyzer confidently would not pick,
#: as (path, function) -> (annotation, suggestion).  The resilient wave spawns
#: home with ``async_`` and the rest with ``at_async``, which the analyzer
#: reads as "mixed, so no specialization: DEFAULT"; it is FINISH_DENSE to run
#: the protocol the simulator's EpochCoordinator waves run (no FORK_RULES
#: entry, so any pattern is legal under it), a choice inference cannot see.
KNOWN_DISAGREEMENTS = {
    ("src/repro/kernels/portable/resilient.py", "_wave"):
        (Pragma.FINISH_DENSE, Pragma.DEFAULT),
}


def test_every_annotated_site_agrees_with_inference():
    # on the shipped tree, wherever a pragma is written down, the analyzer's
    # confident suggestion must match it
    result, _ = analyzed()
    seen = set()
    for site in result.sites:
        if site.annotation is not None and site.confident:
            key = (os.path.relpath(site.path, REPO), site.qualname)
            if key in KNOWN_DISAGREEMENTS:
                assert (site.annotation, site.suggestion) == KNOWN_DISAGREEMENTS[key], key
                seen.add(key)
                continue
            assert site.suggestion is site.annotation, (
                site.path, site.lineno, site.annotation, site.suggestion,
            )
    assert seen == set(KNOWN_DISAGREEMENTS)  # an exemption nobody needs must go
