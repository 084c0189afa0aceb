"""One entry point per kernel: ``simulate``, ``repro serve`` and the program
(``build_program``, ``SimBackend.run``) run the same ``main`` from the one
kernel table, collect from the members in-program and leave no member state
behind."""

from __future__ import annotations

import functools

import pytest

from repro.harness import runner
from repro.harness.runner import simulate
from repro.kernels.portable import (
    KERNELS, PORTABLE_KERNELS, build_program, program_params,
)
from repro.kernels.smithwaterman.sw import sw_main
from repro.obs import Observability
from repro.runtime.runtime import ApgasRuntime
from repro.serve import SERVABLE_KERNELS, parse_scenario, run_scenario
from repro.xrt.backend import get_backend

#: small ``simulate`` keywords per kernel (the at-scale defaults take seconds)
SMALL = {
    "bc": {"scale": 6},
    "fft": {},
    "hpl": {"N": 64, "NB": 8},
    "kmeans": {"points_per_place": 256, "k": 8},
    "randomaccess": {},
    "smithwaterman": {},
    "stream": {},
    "uts": {"depth": 5},
}


def _stores(rt) -> dict:
    return {p: dict(rt.place(p).store) for p in range(rt.n_places) if rt.place(p).store}


@pytest.mark.parametrize("kernel", PORTABLE_KERNELS)
def test_the_program_leaves_no_member_state(kernel):
    rt = ApgasRuntime(places=4)
    rt.run(build_program(kernel, 4, **({"depth": 5} if kernel == "uts" else {})))
    assert _stores(rt) == {}


def _capture_runtimes(monkeypatch) -> list:
    """The runtimes ``simulate`` makes from now on."""
    made, real = [], runner.make_runtime

    def make_runtime(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(runner, "make_runtime", make_runtime)
    return made


@pytest.mark.parametrize("kernel", PORTABLE_KERNELS)
def test_simulate_leaves_no_member_state(kernel, monkeypatch):
    made = _capture_runtimes(monkeypatch)
    simulate(kernel, 4, **SMALL[kernel])
    assert _stores(made[0]) == {}


def _scenario(kernel: str, places: int, params: dict, jobs: int = 3):
    return parse_scenario({
        "seed": 4, "places": max(3, places + 1), "duration": 0.01,
        "tenants": [{"name": "t", "rate": 2000.0, "max_jobs": jobs,
                     "kernel_mix": {kernel: 1.0}}],
        "kernels": {kernel: {"places_min": places, "places_max": places, "params": params}},
    })


@pytest.mark.parametrize("kernel", SERVABLE_KERNELS)
def test_a_serve_scenario_leaves_no_member_state(kernel):
    _report, outcome, rt = run_scenario(_scenario(kernel, 2, {}))
    assert outcome.jobs and all(job.status == "ok" for job in outcome.jobs)
    assert _stores(rt) == {}


@pytest.mark.parametrize("kernel, chaos", [
    ("kmeans", "seed=0,kill=3@0.01"), ("stream", "seed=0,kill=3@0.0005"),
])
def test_a_resilient_run_releases_its_live_members(kernel, chaos, monkeypatch):
    plain = simulate(kernel, 8)
    made = _capture_runtimes(monkeypatch)
    killed = simulate(kernel, 8, resilient=True, chaos=chaos)
    assert killed.extra["metrics"].total("resilient.recoveries") >= 1
    assert killed.verified and killed.extra["checksum"] == plain.extra["checksum"]
    assert _stores(made[0]) == {}


@pytest.mark.parametrize("kernel", ["kmeans", "stream"])
def test_a_kill_after_the_last_commit_keeps_the_result(kernel, monkeypatch):
    """The result is built from the committed blobs; freeing the members'
    state afterwards tolerates a death, so a kill between the last commit
    and the end of the run neither fails it nor changes its checksum."""
    plain = simulate(kernel, 8, resilient=True, trace=True)
    commits = [e.ts for e in plain.extra["trace"].category("resilient")
               if e.name == "resilient.commit"]
    assert commits[-1] < plain.sim_time
    late = (commits[-1] + plain.sim_time) / 2
    made = _capture_runtimes(monkeypatch)
    killed = simulate(kernel, 8, resilient=True, chaos=f"seed=0,kill=7@{late!r}")
    rt = made[0]
    assert rt.dead_places() == (7,)
    assert killed.extra["metrics"].total("resilient.epochs_aborted") == 0
    assert killed.verified and killed.extra["checksum"] == plain.extra["checksum"]
    assert set(_stores(rt)) <= {7}


def test_sw_tours_its_finish_pragmas_inside_its_group():
    """Over a serve job's group, place 0 (the control place) runs the main
    and the members run the rest: nothing runs at any other place."""
    rt = ApgasRuntime(places=8, obs=Observability(trace=True))
    main = functools.partial(sw_main, group=[3, 4], target_len=64, query_len=8, seed=1)
    result = rt.run(main)
    assert result["verified"] and result["probe_returned"] is True
    assert {e.place for e in rt.obs.trace.category("activity")} <= {0, 3, 4}
    assert _stores(rt) == {}


# -- one checksum through every door ---------------------------------------------------

#: per kernel: (program parameters at ``places``, the same problem in
#: ``simulate``'s keywords, which a serve job takes too, every size named
#: since the serving defaults differ); Smith-Waterman's target is cut ``96``
#: a place
DOORS = {
    "bc": (lambda P: {}, lambda P: {"scale": 7, "edge_factor": 8, "seed": 2}),
    "fft": (lambda P: {}, lambda P: {"n1": 16, "n2": 16, "seed": 5}),
    "hpl": (lambda P: {}, lambda P: {"N": 64, "NB": 8, "seed": 7}),
    "kmeans": (lambda P: {}, lambda P: {"points_per_place": 256, "k": 8, "dim": 4,
                                         "iterations": 5, "seed": 3, "actual_points": 256,
                                         "actual_k": 8}),
    "smithwaterman": (
        lambda P: {"target_len": 96 * P, "query_len": 24, "seed": 5},
        lambda P: {"short_len": 24, "long_per_place": 96, "seed": 5, "actual_short": 24,
                   "actual_long": 96},
    ),
    "stream": (lambda P: {}, lambda P: {"elements_per_place": 4096, "actual_elements": 4096}),
}


@pytest.mark.parametrize("places", [1, 3, 4])
@pytest.mark.parametrize("kernel", sorted(DOORS))
def test_simulate_serve_and_the_program_report_one_checksum(kernel, places):
    program_params, simulate_kw = DOORS[kernel]
    program = get_backend("sim").run(kernel, places, **program_params(places))
    assert program.result.get("verified") is not False  # FFT checks in its report
    sim = simulate(kernel, places, **simulate_kw(places))
    assert sim.verified
    assert sim.extra["checksum"] == program.checksum
    if kernel in SERVABLE_KERNELS:
        # a job's parameters are simulate's keywords over the serving defaults
        _report, outcome, _rt = run_scenario(_scenario(kernel, places, simulate_kw(places), jobs=2))
        assert [job.status for job in outcome.jobs] == ["ok", "ok"]
        assert {job.result.extra["checksum"] for job in outcome.jobs} == {program.checksum}


@pytest.mark.parametrize("kernel", sorted(DOORS))
def test_a_group_runs_the_program_of_its_width(kernel):
    """Data is keyed by team rank: over places {2, 3, 5} of six, run from
    place 0 outside the group, a program reports what it does over three
    whole places, and leaves nothing behind."""
    params = DOORS[kernel][0](3)
    rt = ApgasRuntime(places=6)
    main = functools.partial(KERNELS[kernel].main, group=[2, 3, 5], **program_params(kernel, params))
    assert rt.run(main)["checksum"] == get_backend("sim").run(kernel, 3, **params).checksum
    assert _stores(rt) == {}
