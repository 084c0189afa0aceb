"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_kernels_lists_all_eight():
    code, text = run_cli("kernels")
    assert code == 0
    assert len(text.split()) == 8
    assert "uts" in text and "hpl" in text


def test_run_kernel():
    code, text = run_cli("run", "stream", "--places", "4")
    assert code == 0
    assert "aggregate" in text
    assert "verified      : True" in text


def test_run_stats_prints_metrics_snapshot():
    code, text = run_cli("run", "stream", "--places", "4", "--stats")
    assert code == 0
    assert "-- metrics --" in text
    assert "net.messages" in text
    assert "finish ctl" in text


def test_trace_writes_chrome_trace_and_audits(tmp_path):
    import json

    path = str(tmp_path / "uts.json")
    code, text = run_cli("trace", "uts", "--places", "8", "--out", path)
    assert code == 0
    assert "protocol audit: PASS" in text
    assert "[PASS] finish.ctl_messages" in text
    with open(path) as fh:
        doc = json.load(fh)
    assert len(doc["traceEvents"]) > 0


def test_trace_jsonl_without_audit(tmp_path):
    import json

    path = str(tmp_path / "uts.jsonl")
    code, text = run_cli(
        "trace", "uts", "--places", "4", "--out", path, "--format", "jsonl", "--no-audit"
    )
    assert code == 0
    assert "protocol audit" not in text
    with open(path) as fh:
        events = [json.loads(line) for line in fh if line.strip()]
    assert events and all("ph" in e for e in events)


def test_run_rejects_unknown_kernel():
    with pytest.raises(SystemExit):
        run_cli("run", "linpack")


def test_figure_model_only():
    code, text = run_cli("figure", "uts", "--no-sim")
    assert code == 0
    assert "paper anchors" in text
    assert "sim" not in text.split("source")[1].split("paper")[0]


def test_tables():
    code, text = run_cli("tables", )
    assert code == 0
    assert "Table 1" in text and "Table 2" in text


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        run_cli()


# -- error paths ---------------------------------------------------------------


@pytest.mark.parametrize(
    "places, message",
    [
        ("0", "need at least one place"),
        ("-3", "need at least one place"),
        ("55681", "exceed the machine's 55680 usable cores"),
    ],
    ids=["zero", "negative", "too-many"],
)
def test_bad_places_is_a_structured_error(places, message):
    for argv in (
        ("run", "uts"),
        ("run", "uts", "--backend", "sim"),
        ("trace", "uts", "--no-audit"),
        ("race", "uts"),
        ("race", "uts", "--full-sim"),
    ):
        code, text = run_cli(*argv, "--places", places)
        assert code == 2, argv
        assert text.startswith("error:") and message in text, argv


def test_bad_places_on_procs_backend_is_a_structured_error():
    code, text = run_cli("run", "uts", "--backend", "procs", "--places", "0")
    assert code == 2
    assert text.startswith("error:") and "need at least one place" in text


@pytest.mark.parametrize("places", ["0", "-3"])
def test_conform_bad_places_is_a_structured_error(places):
    code, text = run_cli("conform", "uts", "--places", places)
    assert code == 2
    assert text.startswith("error:") and "need at least one place" in text
    assert "Traceback" not in text


def test_conform_deadline_expiry_is_a_timed_out_block(monkeypatch):
    """Portable uts@2 really does hit its deadline (ROADMAP item 2); tier-1
    forks nothing, so the expiry is raised in place of the run."""
    from repro.errors import ProcsTimeoutError
    from repro.xrt import conformance

    def expire(kernel, places, deadline=None):
        raise ProcsTimeoutError(f"place loop exceeded its {deadline}s deadline")

    monkeypatch.setattr(conformance, "run_conformance", expire)
    code, text = run_cli("conform", "uts", "--places", "2", "--deadline", "0")
    assert code == 1
    assert "kernel        : uts" in text and "places        : 2" in text
    assert "timed out     : place loop exceeded its 0.0s deadline" in text
    assert "Traceback" not in text


def test_backend_sim_stats_prints_metrics_snapshot():
    code, text = run_cli("run", "uts", "--places", "4", "--backend", "sim", "--stats")
    assert code == 0
    assert "backend       : sim" in text
    assert "-- metrics --" in text and "finish.ctl_messages" in text
    assert "Traceback" not in text


def test_backend_procs_rejects_stats_flag():
    code, text = run_cli("run", "uts", "--places", "4", "--backend", "procs", "--stats")
    assert code == 2
    assert text.startswith("error:") and "--backend sim" in text
    assert "Traceback" not in text


def test_run_with_malformed_chaos_spec_exits_2():
    code, text = run_cli("run", "stream", "--places", "4", "--chaos", "drop=banana")
    assert code == 2
    assert "bad --chaos spec" in text and "banana" in text


def test_run_with_unknown_chaos_key_exits_2():
    code, text = run_cli("run", "stream", "--places", "4", "--chaos", "explode=1")
    assert code == 2
    assert "bad --chaos spec" in text


def test_trace_with_malformed_chaos_spec_exits_2(tmp_path):
    code, text = run_cli(
        "trace", "uts", "--places", "4", "--out", str(tmp_path / "t.json"),
        "--chaos", "drop",
    )
    assert code == 2
    assert "bad --chaos spec" in text
    assert not (tmp_path / "t.json").exists()


def test_trace_to_an_unwritable_path_is_refused_before_the_run(tmp_path, monkeypatch):
    import repro.cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("the simulation ran before --out was checked")

    monkeypatch.setattr(repro.cli, "simulate", must_not_run)
    code, text = run_cli(
        "trace", "uts", "--places", "4", "--out", str(tmp_path / "missing-dir" / "x.json")
    )
    assert code == 2
    assert text.startswith("error:") and text.count("\n") == 1
    assert "missing-dir" in text and "Traceback" not in text


@pytest.mark.parametrize("backend", [(), ("--backend", "sim")], ids=["full-sim", "backend-sim"])
def test_run_refuses_deadline_without_backend_procs(backend):
    code, text = run_cli("run", "uts", "--places", "4", "--deadline", "5", *backend)
    assert code == 2
    assert text.startswith("error:") and text.count("\n") == 1
    assert "--backend procs" in text and "Traceback" not in text


def test_run_stats_under_chaos_prints_both_sections():
    code, text = run_cli(
        "run", "stream", "--places", "4", "--stats", "--chaos", "seed=3,drop=0.05,rto=1e-4"
    )
    assert code == 0
    assert "chaos         :" in text
    assert "-- metrics --" in text
    assert "deaths        : 0 tolerated" in text


# -- resilient runs ------------------------------------------------------------


def test_run_resilient_survives_kill_with_identical_checksum():
    code, fault_free = run_cli("run", "stream", "--places", "4")
    assert code == 0
    code, text = run_cli(
        "run", "stream", "--places", "4", "--resilient", "--chaos", "seed=0,kill=2@1e-4"
    )
    assert code == 0
    assert "verified      : True" in text
    assert (
        "resilient     : 4 epochs committed, 1 aborted, 1 recoveries, "
        "1 places revived" in text
    )
    assert "dead places none" in text

    def checksum(s):
        return next(ln for ln in s.splitlines() if ln.startswith("checksum"))

    assert checksum(text) == checksum(fault_free)


def test_run_resilient_uts_retries_the_traversal_epoch():
    code, text = run_cli(
        "run", "uts", "--places", "8", "--resilient", "--chaos", "seed=0,kill=3@0.13"
    )
    assert code == 0
    assert "checksum      : 58daa59fa3bb7387" in text
    assert (
        "resilient     : 1 epochs committed, 1 aborted, 1 recoveries, "
        "1 places revived" in text
    )


def test_run_kill_without_resilient_still_fails():
    code, text = run_cli(
        "run", "stream", "--places", "4", "--chaos", "seed=0,kill=2@1e-4"
    )
    assert code == 1
    assert "failed" in text and "dead" in text


def test_run_resilient_rejects_kernel_without_hooks():
    code, text = run_cli("run", "hpl", "--places", "4", "--resilient")
    assert code == 2
    assert "no checkpoint/restore hooks" in text


def test_run_with_out_of_range_kill_place_exits_2():
    code, text = run_cli("run", "stream", "--places", "4", "--chaos", "kill=7@0.01")
    assert code == 2
    assert "bad --chaos spec" in text and "places 0..3" in text


# -- chaos/resilient gating on --backend runs ----------------------------------
#
# On real-execution backends these flags mean real process kills and respawns,
# which only the procs backend implements; every rejection below happens at
# argument/spec validation time, before a single place process is forked.


def test_backend_sim_rejects_chaos_flag():
    code, text = run_cli(
        "run", "stream", "--places", "4", "--backend", "sim",
        "--chaos", "seed=1,kill=2@0.01",
    )
    assert code == 2
    assert "--backend procs" in text and "real process kills" in text


def test_backend_sim_rejects_resilient_flag():
    code, text = run_cli(
        "run", "stream", "--places", "4", "--backend", "sim", "--resilient"
    )
    assert code == 2
    assert "--backend procs" in text


def test_backend_procs_rejects_control_place_kill_at_spec_time():
    code, text = run_cli(
        "run", "kmeans", "--places", "4", "--backend", "procs",
        "--chaos", "kill=0@0.01",
    )
    assert code == 2
    assert "bad --chaos spec" in text and "control place" in text


def test_backend_procs_rejects_modeled_transport_faults_at_spec_time():
    code, text = run_cli(
        "run", "kmeans", "--places", "4", "--backend", "procs",
        "--chaos", "drop=0.5,kill=2@0.01",
    )
    assert code == 2
    assert "bad --chaos spec" in text and "kill=place@time" in text


def test_backend_procs_rejects_out_of_range_kill_at_spec_time():
    code, text = run_cli(
        "run", "kmeans", "--places", "4", "--backend", "procs",
        "--chaos", "kill=7@0.01",
    )
    assert code == 2
    assert "bad --chaos spec" in text and "places 0..3" in text


def test_trace_resilient_run_audits_epoch_consistency(tmp_path):
    path = str(tmp_path / "km.json")
    code, text = run_cli(
        "trace", "kmeans", "--places", "8", "--resilient",
        "--chaos", "seed=0,kill=3@0.01", "--out", path,
    )
    assert code == 0
    assert "protocol audit: PASS" in text
    assert "[PASS] resilient.epoch_consistency" in text


# -- the retired perf suite ------------------------------------------------------
#
# benchmarks/e2e is the one wall-clock suite; the older `perf` subcommand and
# its package must not come back beside it.


def test_perf_subcommand_and_package_are_gone():
    import importlib

    from repro.cli import build_parser

    (subcommands,) = (
        a.choices for a in build_parser()._actions if isinstance(a.choices, dict)
    )
    assert "perf" not in subcommands
    assert len(subcommands) == 10
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(".perf", package="repro")
