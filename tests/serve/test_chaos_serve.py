"""Chaos regression: a mid-run place kill stays contained to the job that
owns the place — every other tenant's jobs complete with bit-identical
results, and the revived place rejoins the pool."""

import json

from repro.obs.audit import audit_trace
from repro.serve import parse_scenario, run_scenario

#: fixed-width footprints so job results cannot vary with pool pressure —
#: a kernel's checksum then depends only on (params, width), never on which
#: places ran it or when
BASE = {
    "seed": 13,
    "places": 6,
    "duration": 0.03,
    "tenants": [
        {"name": "a", "rate": 500.0, "kernel_mix": {"uts": 0.5, "kmeans": 0.5}},
        {"name": "b", "rate": 500.0, "kernel_mix": {"stream": 0.6, "smithwaterman": 0.4}},
    ],
    "kernels": {
        "stream": {"places_min": 2, "places_max": 2},
        "uts": {"places_min": 2, "places_max": 2},
        "kmeans": {"places_min": 2, "places_max": 2},
        "smithwaterman": {"places_min": 2, "places_max": 2},
    },
}
KILL = "seed=9,kill=3@0.01"


def fingerprint(job):
    """The elapsed-independent identity of a job's result."""
    extra = job.result.extra
    if "checksum" in extra:
        return extra["checksum"]
    return extra["best_score"]  # smithwaterman


def scenario(chaos=None):
    d = json.loads(json.dumps(BASE))
    if chaos:
        d["chaos"] = chaos
    return parse_scenario(d)


def test_kill_is_contained_and_survivors_are_bit_identical():
    _rb, baseline, _ = run_scenario(scenario())
    _rc, chaotic, rt = run_scenario(scenario(chaos=KILL), trace=True)

    assert all(j.status == "ok" for j in baseline.jobs)
    aborted = chaotic.by_status("aborted")
    assert len(aborted) == 1
    victim = aborted[0]
    assert 3 in victim.places  # the killed place belonged to the aborted job

    # every job the kill did not touch completes with the same result bits
    base_fp = {j.job_id: fingerprint(j) for j in baseline.jobs}
    for job in chaotic.by_status("ok"):
        assert fingerprint(job) == base_fp[job.job_id]
    assert len(chaotic.by_status("ok")) == len(baseline.jobs) - 1

    # the victim's tenant peers survive; the *other* tenant is untouched
    other = [j for j in chaotic.jobs if j.tenant != victim.tenant]
    assert other
    assert all(j.status == "ok" for j in other)

    # elastic recovery returned the killed place to service
    reused = [
        j for j in chaotic.by_status("ok")
        if 3 in j.places and j.t_start > victim.t_end
    ]
    assert reused

    # and the trace shows no leakage across job partitions
    audit = audit_trace(rt.obs.trace, places=6)
    check = {c.name: c for c in audit.checks}["serve.isolation"]
    assert check.passed is True


def test_chaos_replay_is_deterministic():
    r1, o1, _ = run_scenario(scenario(chaos=KILL))
    r2, o2, _ = run_scenario(scenario(chaos=KILL))
    assert r1.to_json()["digest"] == r2.to_json()["digest"]
    assert [(j.job_id, j.status) for j in o1.jobs] == [
        (j.job_id, j.status) for j in o2.jobs
    ]


def test_aborted_job_leaves_no_state_at_its_places():
    """An aborted job's members never pop their ``ctx.store`` entries; the
    release clears them, so the arrays do not outlive the job."""
    _r, out, rt = run_scenario(scenario(chaos=KILL))
    victim = out.by_status("aborted")[0]
    assert victim.kernel == "kmeans"
    held = {
        p: key
        for p in range(BASE["places"])
        if not rt.is_dead(p)
        for key in rt.place(p).store
        if isinstance(key, tuple) and key[0] == victim.kernel
    }
    assert held == {}
