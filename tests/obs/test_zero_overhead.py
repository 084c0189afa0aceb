"""The zero-overhead invariant: observing a run must not change it.

Metrics and tracing never touch the simulation engine, so a traced run must
be bit-for-bit identical to an untraced one — same simulated time, same
event count, same event order (witnessed by identical schedules and
results), same answers.
"""

import pytest

from repro.glb import GlbConfig
from repro.harness.runner import simulate
from repro.machine import MachineConfig
from repro.runtime import ApgasRuntime


#: every kernel at a place count that crosses octants on the 4-core-per-octant
#: machine, so the route cache and all four link classes are in play
CROSS_OCTANT = {
    "uts": (64, {}),
    "randomaccess": (64, {}),
    "hpl": (16, {}),
    "kmeans": (16, {}),
    "smithwaterman": (16, {}),
    "fft": (16, {}),
    "stream": (16, {}),
    # the graph build dominates bc's wall time and its traffic does not
    # depend on the graph, so a small one keeps tier-1 fast
    "bc": (8, {"scale": 8}),
}


#: the benchmark's fault mix; hpl is left out because resilient hpl does not
#: verify yet (see test_fault_free_resilient_hpl_verifies_like_the_plain_run)
CHAOS = "seed=3,drop=0.05,dup=0.02,delay=0.1:2e-5,reorder=0.05:5e-5"
CHAOS_KERNELS = ["bc", "fft", "kmeans", "randomaccess", "smithwaterman", "stream"]


@pytest.mark.parametrize(
    "kernel, chaos",
    [pytest.param(k, None, id=k) for k in sorted(CROSS_OCTANT)]
    + [pytest.param(k, CHAOS, id=f"{k}+chaos") for k in CHAOS_KERNELS],
)
def test_traced_equals_untraced(kernel, chaos):
    """Tracing only observes: activity starts, message sends and the
    resilient transport's legs each have one body whether tracing is on or
    off, so a traced run executes the untraced one's events.  The full
    metrics rendering covers every counter of every layer,
    ``sim.events_executed`` included."""

    places, kwargs = CROSS_OCTANT[kernel]

    def run(trace):
        r = simulate(
            kernel, places, config=MachineConfig.small(), trace=trace, chaos=chaos, **kwargs
        )
        return r.sim_time, r.value, r.verified, r.extra["metrics"].render()

    assert run(False) == run(True)


def test_traced_run_actually_traced():
    r = simulate("kmeans", 4, trace=True)
    assert len(r.extra["trace"].events) > 0


def test_metrics_snapshot_rides_every_result():
    r = simulate("stream", 4)
    snap = r.extra["metrics"]
    assert snap.total("net.messages") > 0
    assert snap.total("runtime.activities_spawned") > 0
    assert "trace" not in r.extra  # tracing is opt-in


def test_chaos_disabled_runs_bitwise_identical():
    """The chaos hook must be zero-cost when unused: a runtime built with
    ``chaos=None`` is bit-identical to one built without the kwarg at all."""
    from repro.kernels.uts import run_uts

    def run(**kwargs):
        rt = ApgasRuntime(places=16, config=MachineConfig.small(), **kwargs)
        r = run_uts(rt, depth=7, glb_config=GlbConfig(chunk_items=128, seed=3))
        return (
            r.sim_time,
            r.value,
            r.extra["glb"].processed_per_place,
            rt.engine.events_executed,
        )

    assert run() == run(chaos=None)


def test_chaos_disabled_kmeans_bitwise_identical():
    def run(**kwargs):
        r = simulate("kmeans", 8, **kwargs)
        return r.sim_time, r.value, r.verified

    assert run() == run(chaos=None)


def test_resilient_mode_without_faults_same_results():
    """``seed=0`` (no fault probabilities) turns on the resilient transport —
    acks, retry timers, dedup — but the application answers must not change.
    Simulated time differs (acks are real messages); the results cannot."""
    from repro.kernels.uts import run_uts

    def run(chaos):
        rt = ApgasRuntime(places=16, config=MachineConfig.small(), chaos=chaos)
        r = run_uts(rt, depth=7, glb_config=GlbConfig(chunk_items=128, seed=3))
        return r.extra["nodes"], r.extra["glb"].total_processed

    assert run(None) == run("seed=0")


def test_glb_stats_track_registry():
    from repro.kernels.uts import run_uts

    rt = ApgasRuntime(places=8, config=MachineConfig.small())
    r = run_uts(rt, depth=6, glb_config=GlbConfig(chunk_items=64))
    m = rt.obs.metrics
    # GlbStats snapshot agrees with the per-place registry series
    glb = r.extra["glb"]
    assert glb.total_processed == sum(m.by_label("glb.processed", "place").values())
    assert glb.steal_attempts == sum(m.by_label("glb.steal_attempts", "place").values())
