"""Exit codes and output of the ``repro race`` CLI subcommand."""

import io
import os

from repro.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_racy_script_exits_one_and_describes_races():
    code, out = run_cli("race", os.path.join(FIXTURES, "racy_store_write.py"))
    assert code == 1
    assert "race(s)" in out and "write-write" in out
    assert "store key 'winner'" in out


def test_clean_script_exits_zero():
    code, out = run_cli("race", os.path.join(FIXTURES, "clean_sequential.py"))
    assert code == 0
    assert "clean" in out


def test_kernel_target_runs_portable_program():
    code, out = run_cli("race", "stream", "--places", "4")
    assert code == 0
    assert "stream@4: clean" in out


def test_kernel_target_full_sim():
    code, out = run_cli("race", "stream", "--places", "4", "--full-sim")
    assert code == 0
    assert "stream@4: clean" in out


def test_mixed_targets_aggregate_exit_code():
    code, out = run_cli(
        "race",
        os.path.join(FIXTURES, "clean_sequential.py"),
        os.path.join(FIXTURES, "racy_remote_rmw.py"),
    )
    assert code == 1
    assert "clean_sequential.py: clean" in out


def test_unknown_target_is_usage_error():
    code, out = run_cli("race", "not-a-kernel")
    assert code == 2
    assert "unknown target" in out


def test_missing_script_is_usage_error():
    code, out = run_cli("race", "/nope/missing.py")
    assert code == 2
    assert "no such script" in out


def test_directory_target_is_usage_error():
    # a directory is no script: a usage error (2), not a detected race (1)
    code, out = run_cli("race", FIXTURES + os.sep)
    assert code == 2
    assert out.startswith("error:") and "Traceback" not in out
