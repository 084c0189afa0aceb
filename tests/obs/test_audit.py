"""Audit-correctness tests: the paper's closed forms, checked against traces.

The auditor's value rests on two properties exercised here: real runs of the
protocols satisfy their closed-form invariants at several scales, and traces
that violate an invariant are actually flagged.
"""

import math

import pytest

from repro.glb import GlbConfig
from repro.machine import MachineConfig
from repro.obs import AuditReport, Observability, Tracer, audit_trace, expected_ctl_bounds
from repro.runtime import ApgasRuntime, PlaceGroup, Pragma, broadcast_spawn

PLACES = (4, 8, 32)


def traced_runtime(places, **kwargs):
    return ApgasRuntime(
        places=places,
        config=MachineConfig.small(),
        obs=Observability(trace=True),
        **kwargs,
    )


def final_quiesces(rt, pragma):
    """Final finish.quiesce event per finish id, restricted to one pragma."""
    final = {}
    for e in rt.obs.trace.named("finish.quiesce"):
        if e.args["pragma"] == pragma:
            final[e.id] = e
    return list(final.values())


def spmd_program(pragma):
    def main(ctx):
        with ctx.finish(pragma, name="phase") as f:
            for p in range(1, ctx.n_places):
                ctx.at_async(p, body)
        yield f.wait()

    def body(ctx):
        yield ctx.compute(seconds=1e-6)

    return main


# -- closed forms ------------------------------------------------------------------


def test_expected_ctl_bounds_closed_forms():
    assert expected_ctl_bounds("finish_local", 5) == (0, 0)
    assert expected_ctl_bounds("finish_dense", 0) == (0, 0)
    assert expected_ctl_bounds("finish_dense", 7) == (7, 21)
    for pragma in ("default", "finish_async", "finish_here", "finish_spmd"):
        assert expected_ctl_bounds(pragma, 9) == (9, 9)


@pytest.mark.parametrize("places", PLACES)
def test_finish_spmd_ctl_count_is_exactly_p_minus_1(places):
    rt = traced_runtime(places)
    rt.run(spmd_program(Pragma.FINISH_SPMD))
    (q,) = final_quiesces(rt, "finish_spmd")
    assert q.args["remote_joins"] == places - 1
    assert q.args["ctl_messages"] == places - 1
    assert audit_trace(rt.obs.trace, places=places).passed


@pytest.mark.parametrize("places", PLACES)
def test_finish_dense_ctl_count_within_software_routing_bounds(places):
    rt = traced_runtime(places)
    rt.run(spmd_program(Pragma.FINISH_DENSE))
    (q,) = final_quiesces(rt, "finish_dense")
    rj = q.args["remote_joins"]
    assert rj == places - 1
    assert rj <= q.args["ctl_messages"] <= 3 * rj
    assert audit_trace(rt.obs.trace, places=places).passed


@pytest.mark.parametrize("places", PLACES)
def test_broadcast_tree_depth_is_log2_p(places):
    rt = traced_runtime(places)

    def noop(ctx):
        yield ctx.compute(seconds=1e-7)

    def main(ctx):
        yield from broadcast_spawn(ctx, PlaceGroup.world(rt), noop)

    rt.run(main)
    nodes = rt.obs.trace.named("broadcast.node")
    assert len(nodes) == places  # one tree node per place
    assert max(e.args["depth"] for e in nodes) == math.ceil(math.log2(places))
    report = audit_trace(rt.obs.trace, places=places)
    assert report.passed
    assert report.check("broadcast.tree_depth").passed is True


# -- audits of real workloads ------------------------------------------------------


def test_audit_passes_on_uts_trace():
    from repro.kernels.uts import run_uts

    rt = traced_runtime(16)
    run_uts(rt, depth=7, glb_config=GlbConfig(chunk_items=128, seed=3))
    tr = rt.obs.trace
    # the workload exercises FINISH_DENSE and GLB stealing, so neither
    # check may be skipped
    assert any(e.args["pragma"] == "finish_dense" for e in tr.named("finish.quiesce"))
    assert tr.named("glb.steal")
    report = audit_trace(tr, places=16)
    assert report.passed
    assert report.check("finish.ctl_messages").passed is True
    assert report.check("glb.victim_out_degree").passed is True
    assert report.check("net.route_hops").passed is True


def test_audit_passes_on_team_collective_trace():
    rt = traced_runtime(8, collectives_emulated=True)
    members = list(range(8))
    team = rt.team(members)

    def main(ctx):
        with ctx.finish(Pragma.FINISH_SPMD) as f:
            for p in members:
                ctx.at_async(p, member)
        yield f.wait()

    def member(ctx):
        yield team.allreduce(ctx, ctx.here + 1)
        yield team.barrier(ctx)

    rt.run(main)
    tr = rt.obs.trace
    coll = tr.category("collective")
    assert {e.name for e in coll} >= {"coll:allreduce", "coll:barrier"}
    assert tr.named("net.transfer")  # emulated collectives go over the wire
    report = audit_trace(tr, places=8)
    assert report.passed
    assert report.check("net.route_hops").passed is True
    assert report.check("finish.ctl_messages").passed is True


# -- violations are flagged --------------------------------------------------------


def test_audit_flags_violating_trace():
    tr = Tracer(enabled=True)
    # a finish_spmd claiming 7 ctl messages for 3 remote joins
    tr.instant(
        "finish.quiesce", "finish", 0, 1.0, id=1,
        pragma="finish_spmd", remote_joins=3, ctl_messages=7,
    )
    # a thief probing more victims than places allow
    for v in range(1, 5):
        tr.instant("glb.steal", "glb", 0, 1.0, thief=0, victim=v)
    # a broadcast tree deeper than ceil(log2 4) = 2
    tr.instant("broadcast.node", "broadcast", 0, 1.0, lo=0, hi=4, depth=5)
    # a route longer than the fabric's L-D-L maximum
    tr.instant("net.transfer", "network", 0, 1.0, src=0, dst=3, hops=9)
    report = audit_trace(tr, places=4)
    assert not report.passed
    failed = {c.name for c in report.failures}
    assert failed == {
        "finish.ctl_messages",
        "glb.victim_out_degree",
        "broadcast.tree_depth",
        "net.route_hops",
    }


def test_audit_skips_checks_without_evidence():
    tr = Tracer(enabled=True)
    tr.instant("net.transfer", "network", 0, 0.0, src=0, dst=1, hops=1)
    report = audit_trace(tr, places=4)
    assert report.passed  # skips do not fail
    assert report.check("glb.victim_out_degree").skipped
    assert report.check("broadcast.tree_depth").skipped
    assert report.check("finish.ctl_messages").skipped
    assert report.check("net.route_hops").passed is True
    assert "skip" in report.render() and "PASS" in report.render()


def test_empty_trace_fails_audit():
    report = audit_trace(Tracer(enabled=True), places=4)
    assert isinstance(report, AuditReport)
    assert not report.passed
    assert report.check("trace.nonempty").passed is False


def test_pragma_shapes_flags_overcommitted_specialized_finishes():
    tr = Tracer(enabled=True)
    # a finish_async that governed three activities, a finish_here that made
    # two full round trips, and a finish_local that saw a remote join
    tr.instant(
        "finish.quiesce", "finish", 0, 1.0, id=1,
        pragma="finish_async", total_forks=3, remote_joins=1, ctl_messages=1,
    )
    tr.instant(
        "finish.quiesce", "finish", 0, 1.0, id=2,
        pragma="finish_here", total_forks=4, remote_joins=2, ctl_messages=2,
    )
    tr.instant(
        "finish.quiesce", "finish", 0, 1.0, id=3,
        pragma="finish_local", total_forks=1, remote_joins=1, ctl_messages=0,
    )
    report = audit_trace(tr, places=4)
    check = report.check("finish.pragma_shapes")
    assert check.passed is False
    assert "finish#1" in check.detail and "finish#2" in check.detail
    assert "3/0" not in check.actual  # sanity: actual reads "0/3 finishes conform"
    assert check.actual.startswith("0/3")


def test_pragma_shapes_passes_on_conforming_runs():
    rt = traced_runtime(4)
    rt.run(spmd_program(Pragma.FINISH_SPMD))
    report = audit_trace(rt.obs.trace, places=4)
    assert report.check("finish.pragma_shapes").passed is True


def test_pragma_shapes_skips_without_finish_events():
    tr = Tracer(enabled=True)
    tr.instant("net.transfer", "network", 0, 0.0, src=0, dst=1, hops=1)
    report = audit_trace(tr, places=4)
    assert report.check("finish.pragma_shapes").skipped


# -- resilient epoch consistency ---------------------------------------------------


def _epoch(tr, name, epoch, ts=1.0):
    tr.instant(name, "resilient", 0, ts, scope="epochs", epoch=epoch)


def test_epoch_consistency_skips_without_resilient_events():
    tr = Tracer(enabled=True)
    tr.instant("net.transfer", "network", 0, 0.0, src=0, dst=1, hops=1)
    report = audit_trace(tr, places=4)
    assert report.check("resilient.epoch_consistency").skipped


def test_epoch_consistency_passes_on_abort_then_recommit():
    tr = Tracer(enabled=True)
    _epoch(tr, "resilient.restore", -1)
    _epoch(tr, "resilient.commit", 0)
    _epoch(tr, "resilient.abort", 1)
    _epoch(tr, "resilient.restore", 0)
    _epoch(tr, "resilient.commit", 1)
    _epoch(tr, "resilient.commit", 2)
    report = audit_trace(tr, places=4)
    assert report.check("resilient.epoch_consistency").passed is True


def test_epoch_consistency_flags_out_of_order_commit():
    tr = Tracer(enabled=True)
    _epoch(tr, "resilient.commit", 0)
    _epoch(tr, "resilient.commit", 2)  # skipped epoch 1
    report = audit_trace(tr, places=4)
    check = report.check("resilient.epoch_consistency")
    assert check.passed is False
    assert "commit 2 after 0" in check.detail


def test_epoch_consistency_flags_restore_to_uncommitted_epoch():
    tr = Tracer(enabled=True)
    _epoch(tr, "resilient.commit", 0)
    _epoch(tr, "resilient.restore", 3)  # never committed: a torn snapshot
    report = audit_trace(tr, places=4)
    check = report.check("resilient.epoch_consistency")
    assert check.passed is False
    assert "uncommitted epoch 3" in check.detail


def test_epoch_consistency_flags_abandoned_abort():
    tr = Tracer(enabled=True)
    _epoch(tr, "resilient.commit", 0)
    _epoch(tr, "resilient.abort", 1)  # run ended without re-committing 1
    report = audit_trace(tr, places=4)
    check = report.check("resilient.epoch_consistency")
    assert check.passed is False
    assert "never re-committed" in check.detail


def test_epoch_consistency_flags_duplicate_commit():
    tr = Tracer(enabled=True)
    _epoch(tr, "resilient.commit", 0)
    _epoch(tr, "resilient.commit", 0)
    report = audit_trace(tr, places=4)
    check = report.check("resilient.epoch_consistency")
    assert check.passed is False
    assert "committed twice" in check.detail


# -- serve isolation ---------------------------------------------------------------


def _job(tr, jid, places, t0, t1=None, tenant="a", kernel="stream"):
    tr.instant(
        "serve.job_begin", "serve", 0, t0, id=jid,
        tenant=tenant, kernel=kernel, places=list(places),
    )
    if t1 is not None:
        tr.instant(
            "serve.job_end", "serve", 0, t1, id=jid,
            tenant=tenant, kernel=kernel, status="ok", places=list(places),
        )


def test_serve_isolation_skips_without_serving_jobs():
    tr = Tracer(enabled=True)
    tr.instant("net.transfer", "network", 0, 0.0, src=0, dst=1, hops=1)
    report = audit_trace(tr, places=4)
    assert report.check("serve.isolation").skipped


def test_serve_isolation_passes_on_disjoint_partitions():
    tr = Tracer(enabled=True)
    _job(tr, 0, [1, 2], 0.0, 1.0)
    _job(tr, 1, [3, 4], 0.0, 1.0)  # concurrent but disjoint
    _job(tr, 2, [1, 2], 2.0, 3.0)  # same places, later window
    tr.instant("glb.steal", "glb", 1, 0.5, thief=1, victim=2)  # within job 0
    tr.instant("net.transfer", "network", 0, 0.5, src=0, dst=3, hops=1)  # control
    report = audit_trace(tr, places=8)
    assert report.check("serve.isolation").passed is True


def test_serve_isolation_flags_double_booked_place():
    tr = Tracer(enabled=True)
    _job(tr, 0, [1, 2], 0.0, 2.0)
    _job(tr, 1, [2, 3], 1.0, 3.0)  # place 2 owned by both over [1, 2]
    check = audit_trace(tr, places=8).check("serve.isolation")
    assert check.passed is False
    assert "place 2 owned by jobs 0 and 1" in check.detail


def test_serve_isolation_flags_cross_job_steal():
    tr = Tracer(enabled=True)
    _job(tr, 0, [1, 2], 0.0, 2.0)
    _job(tr, 1, [3, 4], 0.0, 2.0)
    tr.instant("glb.steal", "glb", 3, 1.0, thief=3, victim=1)  # job 1 -> job 0
    check = audit_trace(tr, places=8).check("serve.isolation")
    assert check.passed is False
    assert "glb.steal between job" in check.detail


def test_serve_isolation_flags_cross_job_transfer():
    tr = Tracer(enabled=True)
    _job(tr, 0, [1, 2], 0.0, 2.0)
    _job(tr, 1, [3, 4], 0.0, 2.0)
    tr.instant("net.transfer", "network", 1, 1.0, src=1, dst=4, hops=1)
    check = audit_trace(tr, places=8).check("serve.isolation")
    assert check.passed is False
    assert "net.transfer from job 0 to job 1" in check.detail


def test_serve_isolation_exempts_unowned_and_boundary_places():
    tr = Tracer(enabled=True)
    _job(tr, 0, [1, 2], 0.0, 1.0)
    _job(tr, 1, [1, 2], 1.0, 2.0)  # back-to-back reuse of the same places
    # traffic to an unowned place and traffic exactly on the handover
    # boundary (ambiguous owner) are both exempt
    tr.instant("net.transfer", "network", 1, 0.5, src=1, dst=7, hops=1)
    tr.instant("net.transfer", "network", 1, 1.0, src=1, dst=2, hops=1)
    report = audit_trace(tr, places=8)
    assert report.check("serve.isolation").passed is True


def test_serve_isolation_open_window_extends_to_end_of_trace():
    tr = Tracer(enabled=True)
    _job(tr, 0, [1, 2], 0.0)  # no job_end: crashed mid-run, still owns places
    _job(tr, 1, [2, 3], 5.0, 6.0)
    check = audit_trace(tr, places=8).check("serve.isolation")
    assert check.passed is False
    assert "place 2" in check.detail
