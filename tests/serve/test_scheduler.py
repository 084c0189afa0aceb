"""Scheduler policies: admission, ordering, elastic width, isolation, replay."""

import pytest

from repro.errors import ServeError
from repro.harness.runner import make_runtime
from repro.obs.audit import audit_trace
from repro.serve import (
    JobRequest,
    ServeScheduler,
    parse_scenario,
    quick_scenario,
    run_scenario,
)


def fixed(job_id, tenant, arrival, width=2, kernel="stream"):
    """A hand-crafted request with a fixed footprint (no elasticity)."""
    return JobRequest(
        job_id=job_id,
        tenant=tenant,
        kernel=kernel,
        arrival=arrival,
        places_min=width,
        places_max=width,
        seed=0,
        params={},
    )


def spec_for(tenants, places):
    return parse_scenario({"places": places, "duration": 1.0, "tenants": tenants})


def run_requests(spec, requests):
    rt = make_runtime(spec.places)
    outcome = ServeScheduler(rt, spec, requests=requests).run()
    return {j.job_id: j for j in outcome.jobs}, outcome


MIX = {"stream": 1.0}


def test_quick_scenario_runs_to_completion():
    report, outcome, _rt = run_scenario(quick_scenario(places=8, seed=1, duration=0.02))
    assert outcome.jobs
    assert all(j.status in ("ok", "rejected", "starved") for j in outcome.jobs)
    ok = outcome.by_status("ok")
    assert ok
    assert all(j.latency > 0 for j in ok)
    assert report.to_json()["completed"] == len(ok)


def test_place_zero_never_allocated():
    _report, outcome, _rt = run_scenario(quick_scenario(places=8, seed=2, duration=0.02))
    for job in outcome.by_status("ok"):
        assert 0 not in job.places


def test_running_jobs_never_share_a_place():
    _report, outcome, _rt = run_scenario(quick_scenario(places=8, seed=3, duration=0.02))
    done = outcome.by_status("ok")
    assert done
    for i, a in enumerate(done):
        for b in done[i + 1:]:
            overlap = a.t_start < b.t_end and b.t_start < a.t_end
            if overlap:
                assert not set(a.places) & set(b.places)


def test_isolation_audit_passes_on_traced_run():
    _report, _outcome, rt = run_scenario(
        quick_scenario(places=8, seed=4, duration=0.02), trace=True
    )
    audit = audit_trace(rt.obs.trace, places=8)
    check = {c.name: c for c in audit.checks}["serve.isolation"]
    assert check.passed is True


def test_place_count_mismatch_rejected():
    spec = quick_scenario(places=8)
    rt = make_runtime(6)
    with pytest.raises(ServeError, match="places"):
        ServeScheduler(rt, spec)


def test_unknown_tenant_in_requests_rejected():
    spec = spec_for([{"name": "a", "rate": 1.0, "kernel_mix": MIX}], places=4)
    rt = make_runtime(4)
    with pytest.raises(ServeError, match="unknown tenant"):
        ServeScheduler(rt, spec, requests=[fixed(0, "ghost", 0.0)])


def test_elastic_width_grows_when_idle_shrinks_under_contention():
    spec = spec_for([{"name": "a", "rate": 1.0, "kernel_mix": MIX}], places=6)
    reqs = [
        JobRequest(i, "a", "stream", 0.0, places_min=2, places_max=4, seed=0, params={})
        for i in range(3)
    ]
    jobs, _ = run_requests(spec, reqs)
    # job 0 dispatches into an idle machine: grows to places_max
    assert len(jobs[0].places) == 4
    # jobs 1 and 2 queue behind it; at release the pool (5 places) is split
    # under contention: the first takes its minimum, the now-alone second
    # grows into what is left (3 of the 4 it wanted)
    assert len(jobs[1].places) == 2
    assert len(jobs[2].places) == 3
    assert all(j.status == "ok" for j in jobs.values())


def test_priority_classes_are_strict():
    spec = spec_for(
        [
            {"name": "lo", "rate": 1.0, "priority": 2, "kernel_mix": MIX},
            {"name": "hi", "rate": 1.0, "priority": 1, "kernel_mix": MIX},
        ],
        places=3,  # pool of 2: exactly one width-2 job at a time
    )
    reqs = [fixed(0, "lo", 0.0), fixed(1, "lo", 0.0), fixed(2, "hi", 0.0)]
    jobs, _ = run_requests(spec, reqs)
    assert all(j.status == "ok" for j in jobs.values())
    # job 0 starts immediately; when it releases, hi's job 2 beats lo's job 1
    assert jobs[2].t_start < jobs[1].t_start


def test_weighted_fair_share_interleaves_by_weight():
    spec = spec_for(
        [
            {"name": "a", "rate": 1.0, "weight": 1.0, "kernel_mix": MIX},
            {"name": "b", "rate": 1.0, "weight": 2.0, "kernel_mix": MIX},
        ],
        places=3,  # serialize dispatches
    )
    reqs = [
        fixed(0, "a", 0.0),
        fixed(1, "a", 0.0),
        fixed(2, "a", 0.0),
        fixed(3, "b", 0.0),
        fixed(4, "b", 0.0),
        fixed(5, "b", 0.0),
    ]
    jobs, _ = run_requests(spec, reqs)
    assert all(j.status == "ok" for j in jobs.values())
    order = [j.job_id for j in sorted(jobs.values(), key=lambda j: j.t_start)]
    # vtime is metered in places per unit weight, so tenant b (weight 2) runs
    # two jobs for each of tenant a's once both are queued
    assert order == [0, 1, 3, 4, 2, 5]


def test_quota_caps_concurrent_places():
    spec = spec_for(
        [{"name": "a", "rate": 1.0, "quota_places": 2, "kernel_mix": MIX}],
        places=8,  # plenty of pool: only the quota constrains
    )
    reqs = [fixed(i, "a", 0.0) for i in range(4)]
    jobs, _ = run_requests(spec, reqs)
    done = [j for j in jobs.values() if j.status == "ok"]
    assert len(done) == 4
    for i, a in enumerate(done):
        for b in done[i + 1:]:
            # quota 2 with width-2 jobs: never two running at once
            assert not (a.t_start < b.t_end and b.t_start < a.t_end)


def test_quota_below_footprint_starves():
    spec = spec_for(
        [{"name": "a", "rate": 1.0, "quota_places": 1, "kernel_mix": MIX}],
        places=8,
    )
    jobs, _ = run_requests(spec, [fixed(0, "a", 0.0)])
    assert jobs[0].status == "starved"


def test_max_queued_zero_rejects_everything():
    spec = spec_for(
        [{"name": "a", "rate": 1.0, "max_queued": 0, "kernel_mix": MIX}],
        places=8,
    )
    jobs, _ = run_requests(spec, [fixed(i, "a", 0.0) for i in range(3)])
    assert all(j.status == "rejected" for j in jobs.values())


def test_max_queued_rejects_overflow_only():
    spec = spec_for(
        [
            {"name": "a", "rate": 1.0, "max_queued": 1, "kernel_mix": MIX},
        ],
        places=3,  # pool of 2: one running, rest must queue
    )
    reqs = [fixed(i, "a", 0.0) for i in range(4)]
    jobs, _ = run_requests(spec, reqs)
    statuses = [jobs[i].status for i in range(4)]
    # 0 runs at once, 1 queues; 2 and 3 find the queue full
    assert statuses == ["ok", "ok", "rejected", "rejected"]


def test_replay_is_bit_identical():
    spec = quick_scenario(places=8, seed=5, duration=0.02)
    r1, o1, _ = run_scenario(spec)
    r2, o2, _ = run_scenario(spec)
    assert r1.to_json()["digest"] == r2.to_json()["digest"]
    assert [(j.job_id, j.status, j.places, j.t_start, j.t_end) for j in o1.jobs] == [
        (j.job_id, j.status, j.places, j.t_start, j.t_end) for j in o2.jobs
    ]


def test_metrics_record_latency_and_queue_depth():
    spec = quick_scenario(places=8, seed=6, duration=0.02)
    _report, outcome, rt = run_scenario(spec)
    snap = rt.obs.metrics.snapshot()
    ok = outcome.by_status("ok")
    by_tenant = {}
    for j in ok:
        by_tenant[j.tenant] = by_tenant.get(j.tenant, 0) + 1
    for tenant, n in by_tenant.items():
        h = snap.get("serve.job_latency", tenant=tenant)
        assert h["count"] == n
        assert snap.get("serve.jobs", tenant=tenant, status="ok") == n
    depth = snap.get("serve.queue_depth")
    assert depth["count"] >= len(outcome.jobs)  # observed at arrival and release


def test_finished_jobs_do_not_pin_their_arrays():
    """The runtime outlives every job it served; a finished stream job's
    registered regions (and the NumPy buffers behind them) must not."""
    import gc

    from repro.xrt.rdma import MemRegion

    spec = spec_for(
        [{"name": "a", "rate": 2000.0, "kernel_mix": MIX, "max_jobs": 20}], places=8
    )
    report, _outcome, _rt = run_scenario(spec)
    assert report.completed == 20
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, MemRegion)]
