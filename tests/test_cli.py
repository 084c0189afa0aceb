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
    assert "resilient     :" in text and "1 places revived" in text
    assert "dead places none" in text

    def checksum(s):
        return next(ln for ln in s.splitlines() if ln.startswith("checksum"))

    assert checksum(text) == checksum(fault_free)


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


# -- perf subcommand -----------------------------------------------------------


def _tiny_benches(monkeypatch):
    """Replace the catalog with near-instant benches so CLI tests stay fast.

    A short sleep keeps each run's duration stable enough that back-to-back
    invocations agree within a loose tolerance.
    """
    import time

    from repro.perf import benches

    def work():
        time.sleep(0.01)
        return 100.0

    catalog = [
        benches.Bench(name="tiny.sim@1", suite="sim", unit="ops/s", fn=work),
        benches.Bench(name="tiny.kern@1", suite="kernels", unit="ops/s", fn=work),
    ]
    monkeypatch.setattr(benches, "BENCHES", catalog)


def test_perf_writes_both_bench_files(monkeypatch, tmp_path):
    _tiny_benches(monkeypatch)
    code, text = run_cli("perf", "--repeats", "1", "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "BENCH_sim.json").exists()
    assert (tmp_path / "BENCH_kernels.json").exists()
    assert "suite sim" in text and "suite kernels" in text


def test_perf_check_passes_against_own_output(monkeypatch, tmp_path):
    _tiny_benches(monkeypatch)
    code, _ = run_cli("perf", "--repeats", "1", "--out-dir", str(tmp_path))
    assert code == 0
    code, text = run_cli(
        "perf", "--repeats", "1", "--tolerance", "0.9",
        "--out-dir", str(tmp_path), "--baseline-dir", str(tmp_path), "--check",
    )
    assert code == 0
    assert "perf check passed" in text


def test_perf_check_fails_on_regression(monkeypatch, tmp_path):
    import json

    _tiny_benches(monkeypatch)
    code, _ = run_cli("perf", "--repeats", "1", "--out-dir", str(tmp_path))
    assert code == 0
    # inflate the baseline so the rerun looks like a huge slowdown
    for name in ("BENCH_sim.json", "BENCH_kernels.json"):
        doc = json.loads((tmp_path / name).read_text())
        for entry in doc["results"]:
            entry["value"] *= 1e9
        (tmp_path / name).write_text(json.dumps(doc))
    code, text = run_cli(
        "perf", "--repeats", "1",
        "--out-dir", str(tmp_path), "--baseline-dir", str(tmp_path), "--check",
    )
    assert code == 1
    assert "REGRESSION" in text


def test_perf_check_with_missing_tolerance_baseline_exits_2(monkeypatch, tmp_path):
    """A schema-v2 baseline that lost its per-suite tolerance is a usage
    error — the gate must refuse to run, not fall back to a default."""
    import json

    _tiny_benches(monkeypatch)
    code, _ = run_cli("perf", "--repeats", "1", "--out-dir", str(tmp_path))
    assert code == 0
    for name in ("BENCH_sim.json", "BENCH_kernels.json"):
        doc = json.loads((tmp_path / name).read_text())
        del doc["tolerance"]
        (tmp_path / name).write_text(json.dumps(doc))
    code, text = run_cli(
        "perf", "--repeats", "1",
        "--out-dir", str(tmp_path), "--baseline-dir", str(tmp_path), "--check",
    )
    assert code == 2
    assert "tolerance" in text and "unreadable baseline" in text


def test_perf_check_with_malformed_tolerance_baseline_exits_2(monkeypatch, tmp_path):
    import json

    _tiny_benches(monkeypatch)
    code, _ = run_cli("perf", "--repeats", "1", "--out-dir", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "BENCH_sim.json").read_text())
    doc["tolerance"] = "twenty percent"
    (tmp_path / "BENCH_sim.json").write_text(json.dumps(doc))
    code, text = run_cli(
        "perf", "--suite", "sim", "--repeats", "1",
        "--out-dir", str(tmp_path), "--baseline-dir", str(tmp_path), "--check",
    )
    assert code == 2
    assert "tolerance" in text


def test_perf_check_uses_the_suite_tolerance_from_the_baseline(monkeypatch, tmp_path):
    """Quick mode gates at the baseline's own tolerance, not the default."""
    import json

    _tiny_benches(monkeypatch)
    code, _ = run_cli("perf", "--repeats", "1", "--out-dir", str(tmp_path))
    assert code == 0
    # a 1% gate plus an astronomically inflated baseline must regress even
    # though the default 20% gate is never consulted
    doc = json.loads((tmp_path / "BENCH_sim.json").read_text())
    doc["tolerance"] = 0.01
    for entry in doc["results"]:
        entry["value"] *= 1e9
    (tmp_path / "BENCH_sim.json").write_text(json.dumps(doc))
    code, text = run_cli(
        "perf", "--suite", "sim", "--repeats", "1",
        "--out-dir", str(tmp_path), "--baseline-dir", str(tmp_path), "--check",
    )
    assert code == 1
    assert "tolerance 1%" in text


def test_perf_check_without_baseline_exits_2(tmp_path):
    code, text = run_cli("perf", "--check", "--baseline-dir", str(tmp_path), "--out-dir", str(tmp_path))
    assert code == 2
    assert "needs a baseline" in text


def test_perf_rejects_bad_tolerance(tmp_path):
    code, text = run_cli("perf", "--tolerance", "1.5", "--out-dir", str(tmp_path))
    assert code == 2
    assert "--tolerance" in text


def test_perf_rejects_bad_repeats(tmp_path):
    code, text = run_cli("perf", "--repeats", "0", "--out-dir", str(tmp_path))
    assert code == 2
    assert "--repeats" in text


def test_perf_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        run_cli("perf", "--suite", "warp")
