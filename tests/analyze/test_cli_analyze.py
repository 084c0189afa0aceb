"""Error paths and output shapes of the `repro analyze` CLI subcommand."""

import io
import json
import os

from repro.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src", "repro")
EXAMPLES = os.path.join(REPO, "examples")


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_clean_tree_exits_zero():
    # the whole package and the examples, with no suppression file: every
    # finding the rules raise here gates
    code, text = run_cli("analyze", SRC, EXAMPLES)
    assert code == 0
    assert "21 finish site(s) analyzed, 0 finding(s)" in text
    assert "analyze: clean" in text


def test_findings_exit_one_with_locations():
    code, text = run_cli("analyze", FIXTURES)
    assert code == 1
    assert "viol_apg101.py:9: APG101" in text
    assert "error" in text and "warning" in text


def test_missing_path_exits_two():
    code, text = run_cli("analyze", "/no/such/tree")
    assert code == 2
    assert text.startswith("error:") and "/no/such/tree" in text


def test_unparsable_file_exits_two(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    code, text = run_cli("analyze", str(bad))
    assert code == 2
    assert "cannot parse" in text


def test_json_output_shape():
    code, text = run_cli("analyze", os.path.join(FIXTURES, "viol_apg106.py"), "--json")
    assert code == 1
    payload = json.loads(text)
    assert set(payload) == {"files", "sites", "findings"}
    assert len(payload["files"]) == 1
    rules = sorted(f["rule"] for f in payload["findings"])
    assert rules == ["APG106", "APG106"]
    for finding in payload["findings"]:
        assert set(finding) == {"rule", "severity", "path", "line", "message", "source"}


def test_sites_listing():
    code, text = run_cli("analyze", os.path.join(EXAMPLES, "finish_patterns.py"), "--sites")
    assert code == 0
    assert "suggests finish_spmd" in text
    assert "[annotated: finish_here]" in text


def test_warning_findings_gate():
    # both severities fail the run: a file with only warnings exits 1
    path = os.path.join(FIXTURES, "viol_apg106.py")
    code, text = run_cli("analyze", path)
    assert code == 1
    assert "APG106 warning" in text and "analyze: clean" not in text


def test_mhp_dump_lists_parallel_pairs():
    code, text = run_cli(
        "analyze", os.path.join(FIXTURES, "viol_apg108.py"), "--mhp"
    )
    assert code == 1  # the seeded APG108 finding gates
    assert "may-happen-in-parallel" in text
    assert "<||>" in text
