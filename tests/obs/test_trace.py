"""Tests for the event tracer (repro.obs.trace) and its exports."""

import io
import json

from repro.machine import MachineConfig
from repro.obs import Observability, Tracer
from repro.runtime import ApgasRuntime, Pragma


def traced_runtime(places=4):
    return ApgasRuntime(
        places=places, config=MachineConfig.small(), obs=Observability(trace=True)
    )


def spmd(ctx):
    with ctx.finish(Pragma.FINISH_SPMD, name="spmd") as f:
        for p in range(1, ctx.n_places):
            ctx.at_async(p, body)
    yield f.wait()


def body(ctx):
    yield ctx.compute(seconds=1e-6)


def test_disabled_tracer_records_nothing():
    rt = ApgasRuntime(places=4, config=MachineConfig.small())
    rt.run(spmd)
    assert len(rt.obs.trace.events) == 0


def test_traced_run_records_spans_and_messages():
    rt = traced_runtime()
    rt.run(spmd)
    tr = rt.obs.trace
    assert len(tr.events) > 0
    # activity spans come in matched begin/end pairs
    begins = [e for e in tr.category("activity") if e.ph == "b"]
    ends = [e for e in tr.category("activity") if e.ph == "e"]
    assert len(begins) == len(ends) == rt.obs.metrics.value("runtime.activities_spawned")
    assert {e.id for e in begins} == {e.id for e in ends}
    # every transfer and every finish control message is recorded
    assert len(tr.named("net.transfer")) == rt.obs.metrics.total("net.messages")
    assert len(tr.named("finish.ctl")) >= 3  # one per remote termination
    # timestamps are simulated time: monotone per event order is not required,
    # but all must lie within the run
    assert all(0.0 <= e.ts <= rt.now for e in tr.events)


def test_finish_quiesce_summary_matches_counters():
    rt = traced_runtime()
    rt.run(spmd)
    quiesces = rt.obs.trace.named("finish.quiesce")
    spmd_final = [e for e in quiesces if e.args["pragma"] == "finish_spmd"][-1]
    assert spmd_final.args["remote_joins"] == 3
    assert spmd_final.args["ctl_messages"] == 3


def test_export_jsonl_round_trips():
    rt = traced_runtime()
    rt.run(spmd)
    buf = io.StringIO()
    n = rt.obs.trace.export_jsonl(buf)
    lines = [line for line in buf.getvalue().splitlines() if line]
    assert n == len(lines) == len(rt.obs.trace.events)
    parsed = [json.loads(line) for line in lines]
    assert all({"ts", "ph", "name", "cat", "place"} <= set(d) for d in parsed)


def test_export_chrome_format(tmp_path):
    rt = traced_runtime()
    rt.run(spmd)
    path = str(tmp_path / "trace.json")
    rt.obs.trace.export_chrome(path)
    with open(path) as fh:
        doc = json.load(fh)
    assert "traceEvents" in doc
    events = doc["traceEvents"]
    assert len(events) == len(rt.obs.trace.events)
    for rec in events:
        assert {"name", "cat", "ph", "ts", "pid", "tid"} <= set(rec)
        assert rec["ph"] in ("b", "e", "i")
    # async spans carry correlation ids
    assert all("id" in rec for rec in events if rec["ph"] in ("b", "e"))


def test_tracer_query_helpers():
    tr = Tracer(enabled=True)
    tr.instant("a", "cat1", 0, 0.0, x=1)
    tr.span_begin("b", "cat2", 1, 0.5, id=7)
    tr.span_end("b", "cat2", 1, 1.0, id=7)
    assert len(tr) == 3
    assert [e.name for e in tr.category("cat2")] == ["b", "b"]
    assert tr.named("a")[0].args == {"x": 1}
