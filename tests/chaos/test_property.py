"""Seeded property-based chaos tests.

Rather than a single scenario, these sweep a family of seeds: each seed
replays a distinct deterministic fault schedule, and the invariants must
hold for all of them — exactly-once application delivery under duplication
and retry, and application results bit-identical to fault-free runs whenever
every fault was recovered (no kills).
"""

import pytest

from repro.glb import GlbConfig

from tests.chaos.conftest import counter_total, make_chaos_runtime, run_fanout

SEEDS = range(8)


@pytest.mark.parametrize("seed", SEEDS)
def test_exactly_once_delivery_under_duplication_and_retry(seed):
    rt = make_chaos_runtime(16, chaos=f"seed={seed},drop=0.3,dup=0.3,rto=1e-4")
    arrivals = run_fanout(rt, repeats=3)
    assert arrivals == {p: 3 for p in range(1, 16)}
    # the books agree: every logical delivery happened once, every suppressed
    # duplicate was counted, nothing was declared unreachable
    assert counter_total(rt, "transport.retry.exhausted") == 0
    delivered = counter_total(rt, "transport.delivered")
    assert delivered == counter_total(rt, "xrt.messages")


def test_uts_result_bit_identical_when_all_faults_recovered():
    from repro.kernels.uts import run_uts

    def run(chaos):
        rt = make_chaos_runtime(16, chaos=chaos)
        r = run_uts(rt, depth=7, glb_config=GlbConfig(chunk_items=128, seed=3))
        return r.extra["nodes"]

    baseline = run(None)
    for seed in (1, 5, 9):
        chaotic = run(f"seed={seed},drop=0.2,dup=0.1,delay=0.2:2e-5,rto=1e-4")
        assert chaotic == baseline, f"seed {seed} changed the traversal result"


def test_kmeans_result_bit_identical_when_all_faults_recovered():
    import numpy as np

    from repro.harness.runner import simulate
    from repro.machine import MachineConfig

    def run(chaos):
        # the small machine of make_chaos_runtime, so faults actually fire
        r = simulate("kmeans", 16, config=MachineConfig.small(), chaos=chaos,
                     points_per_place=2000, k=16, dim=4, iterations=3)
        assert r.verified is not False
        return r.extra["centroids"]

    baseline = run(None)
    chaotic = run("seed=2,drop=0.2,dup=0.1,rto=1e-4")
    assert np.array_equal(baseline, chaotic)


@pytest.mark.parametrize("seed", [0, 4])
def test_degraded_link_slows_but_does_not_corrupt(seed):
    rt_clean = make_chaos_runtime(16, chaos=f"seed={seed}")
    clean = run_fanout(rt_clean, repeats=2)
    rt_slow = make_chaos_runtime(16, chaos=f"seed={seed},degrade=8@0")
    slow = run_fanout(rt_slow, repeats=2)
    assert clean == slow
    assert counter_total(rt_slow, "chaos.degraded") > 0
    assert rt_slow.engine.now > rt_clean.engine.now, "an 8x payload cut must cost time"
