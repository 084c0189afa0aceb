"""Ablation: statically partitioned BC vs BC on top of GLB ([43]).

Paper Section 7: randomizing the static partition mitigates the per-vertex
cost imbalance "but only to a degree — the smaller the parts, the higher the
imbalance"; the follow-up GLB implementation "has better efficiency".
"""

import dataclasses

import pytest

from repro.glb import GlbConfig
from repro.harness.calibration import DEFAULT_CALIBRATION
from repro.harness.reporting import render_table
from repro.harness.runner import make_runtime, simulate
from repro.kernels.bc import run_bc_glb

from benchmarks._util import run_once

PLACES = 32
SCALE = 9
# match the paper's work-to-latency regime (its graphs are far larger)
DILATED = dataclasses.replace(
    DEFAULT_CALIBRATION, bc_edges_per_sec=DEFAULT_CALIBRATION.bc_edges_per_sec / 50
)


def bench_bc_static_vs_glb(benchmark):
    def run_both():
        static = simulate(
            "bc", PLACES, scale=SCALE, seed=2, modeled_scale=None, calibration=DILATED
        )
        rt_glb = make_runtime(PLACES)
        dynamic = run_bc_glb(
            rt_glb, scale=SCALE, seed=2,
            glb_config=GlbConfig(chunk_items=1, prime_items=1),
            calibration=DILATED,
        )
        return static, dynamic

    static, dynamic = run_once(benchmark, run_both)
    print()
    print(
        render_table(
            ["variant", "edges/s", "makespan [s]"],
            [
                ("static random partition", static.value, static.sim_time),
                ("GLB-balanced [43]", dynamic.value, dynamic.sim_time),
            ],
        )
    )
    import numpy as np

    np.testing.assert_allclose(
        dynamic.extra["centrality"], static.extra["centrality"], atol=1e-9
    )
    assert dynamic.value > static.value  # "the resulting code has better efficiency"
    assert dynamic.extra["efficiency"] > 0.85