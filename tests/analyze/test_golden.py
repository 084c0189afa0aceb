"""Golden-file test: analyzing the shipped kernels and examples must
reproduce the recorded per-site suggestions exactly, with zero findings."""

import json
import os

from repro.analyze import analyze_paths
from repro.analyze.report import render_json

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


def test_every_annotated_site_agrees_with_inference():
    # on the shipped tree, wherever a pragma is written down, the analyzer's
    # confident suggestion must match it
    result, _ = analyzed()
    for site in result.sites:
        if site.annotation is not None and site.confident:
            assert site.suggestion is site.annotation, (
                site.path, site.lineno, site.annotation, site.suggestion,
            )
