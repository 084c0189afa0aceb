"""Tests for the lint framework: each rule fires on its seeded fixture and
suppression comments work."""

import os

import pytest

from repro.analyze import Severity, analyze_paths
from repro.analyze.rules import REGISTRY

# rule registration happens on import of the rule module
import repro.analyze.apgas_rules  # noqa: F401

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def findings_for(name: str):
    return analyze_paths([fixture(name)]).findings


ALL_RULES = (
    "APG101", "APG102", "APG103", "APG104", "APG105",
    "APG106", "APG108", "APG109", "APG110",
)


def test_registry_has_the_full_catalogue():
    assert set(REGISTRY) == set(ALL_RULES)
    assert [s.label for s in Severity] == ["warning", "error"]
    assert REGISTRY["APG101"].severity is Severity.ERROR
    assert REGISTRY["APG101"].name == "pragma-mismatch"
    for code in ALL_RULES:
        assert REGISTRY[code].doc  # every rule documents itself


@pytest.mark.parametrize("code", ALL_RULES)
def test_each_rule_fires_exactly_where_planted(code):
    name = f"viol_{code.lower()}.py"
    path = fixture(name)
    expected = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if f"{code} expected here" in line:
                expected.append(lineno)
    assert expected, f"fixture {name} has no planted markers"
    found = findings_for(name)
    assert [f.lineno for f in found] == expected
    assert all(f.rule == code for f in found)


def test_no_rule_fires_on_a_foreign_fixture():
    # the APG104 fixture is clean for every other rule
    found = findings_for("viol_apg104.py")
    assert {f.rule for f in found} == {"APG104"}


def test_bare_noqa_suppresses_all_rules(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from repro.glb import GlbConfig\n"
        "cfg = GlbConfig(max_victims=None)  # noqa\n"
    )
    assert analyze_paths([str(src)]).findings == []


def test_coded_noqa_suppresses_only_named_rules():
    # viol_apg106.py plants two findings and suppresses a third with
    # `# noqa: APG106`; a mismatched code must not suppress
    found = findings_for("viol_apg106.py")
    assert len(found) == 2
    with open(fixture("viol_apg106.py")) as fh:
        assert sum("# noqa: APG106" in line for line in fh) == 1


def test_apg106_ignores_glbconfig_own_definition():
    # GlbConfig.original() builds its overrides with dict(max_victims=None);
    # only calls that construct a GlbConfig are judged
    config = os.path.join(REPO, "src", "repro", "glb", "config.py")
    assert analyze_paths([config]).findings == []


def test_apg106_judges_only_glbconfig_constructors(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from repro.glb import GlbConfig\n"
        "a = dict(max_victims=None)\n"
        "b = GlbConfig.refined(max_victims=None)\n"
        "c = GlbConfig.original(max_victims=4)\n"
    )
    assert [f.lineno for f in analyze_paths([str(src)]).findings] == [3]


def test_noqa_with_other_code_does_not_suppress(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from repro.glb import GlbConfig\n"
        "cfg = GlbConfig(max_victims=None)  # noqa: APG999\n"
    )
    found = analyze_paths([str(src)]).findings
    assert [f.rule for f in found] == ["APG106"]


# -- race rules: suppression -----------------------------------------------------


@pytest.mark.parametrize("code", ("APG108", "APG109", "APG110"))
def test_race_rule_coded_noqa_suppresses(code, tmp_path):
    name = f"viol_{code.lower()}.py"
    with open(fixture(name)) as fh:
        lines = fh.read().splitlines(keepends=True)
    marker = f"{code} expected here"
    patched = [
        line.replace(marker, f"noqa: {code}") if marker in line else line
        for line in lines
    ]
    assert patched != lines
    src = tmp_path / name
    src.write_text("".join(patched))
    assert analyze_paths([str(src)]).findings == []
