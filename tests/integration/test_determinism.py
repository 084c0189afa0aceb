"""Whole-stack determinism: a run is a pure function of (program, config, seed)."""

import pytest

from repro.glb import GlbConfig
from repro.harness.runner import simulate
from repro.machine import MachineConfig


@pytest.mark.parametrize("kernel,places", [
    ("stream", 8),
    ("kmeans", 8),
    ("smithwaterman", 8),
    ("fft", 4),
    ("hpl", 4),
    ("bc", 4),
])
def test_kernels_bitwise_deterministic(kernel, places):
    a = simulate(kernel, places)
    b = simulate(kernel, places)
    assert a.sim_time == b.sim_time
    assert a.value == b.value


def test_uts_deterministic_including_steal_schedule():
    from repro.kernels.uts import run_uts
    from repro.runtime import ApgasRuntime

    def run():
        rt = ApgasRuntime(places=16, config=MachineConfig.small())
        r = run_uts(rt, depth=7, glb_config=GlbConfig(chunk_items=128, seed=3))
        return r.sim_time, r.extra["glb"].processed_per_place

    t1, per1 = run()
    t2, per2 = run()
    assert t1 == t2
    assert per1 == per2


def test_uts_steal_schedule_varies_with_seed_but_count_does_not():
    from repro.kernels.uts import run_uts
    from repro.runtime import ApgasRuntime

    def run(seed):
        rt = ApgasRuntime(places=16, config=MachineConfig.small())
        r = run_uts(rt, depth=7, glb_config=GlbConfig(chunk_items=128, seed=seed))
        return r.extra["nodes"], tuple(r.extra["glb"].processed_per_place)

    nodes1, per1 = run(1)
    nodes2, per2 = run(2)
    assert nodes1 == nodes2  # the tree is the tree
    assert per1 != per2  # but the balance differs with the steal RNG


def test_randomaccess_table_deterministic():
    from repro.harness.runner import simulate

    def run():
        return simulate("randomaccess", 4, config=MachineConfig.small(),
                        table_words_per_place=128, updates_per_place=256, materialize=True,
                        model_updates_factor=1.0)

    a, b = run(), run()
    assert a.sim_time == b.sim_time
    assert a.extra["errors"] == b.extra["errors"] == 0
