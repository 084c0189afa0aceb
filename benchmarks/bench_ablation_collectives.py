"""Ablation: hardware collectives vs the point-to-point emulation layer.

Paper Section 3.3: when the runtime is configured for networks with hardware
multi-way communication support, team operations map directly to the hardware
implementations, "offering performance that cannot be matched by
point-to-point messages"; otherwise the emulation layer kicks in.
``rt.team`` returns the rendezvous ``Team`` on the hardware path and the
point-to-point message program (``MessageTeam``) on the emulated one.
"""

import numpy as np
import pytest

from repro.harness.reporting import render_table
from repro.machine import MachineConfig
from repro.runtime import ApgasRuntime, PlaceGroup, broadcast_spawn

from benchmarks._util import run_once

PLACES = 256
ROUNDS = 5


def _run(emulated):
    rt = ApgasRuntime(places=PLACES, config=MachineConfig(), collectives_emulated=emulated)
    team = rt.team(list(range(PLACES)))

    def body(ctx):
        value = np.ones(4096)
        for _ in range(ROUNDS):
            value = yield team.allreduce(ctx, value)
        return None

    def main(ctx):
        yield from broadcast_spawn(ctx, PlaceGroup.world(rt), body)

    rt.run(main)
    return rt.now


def bench_hw_vs_emulated_allreduce(benchmark):
    def run_both():
        return _run(False), _run(True)

    hw, emulated = run_once(benchmark, run_both)
    print()
    print(
        render_table(
            ["collectives", f"{ROUNDS} allreduces over {PLACES} places [s]"],
            [("hardware (Torrent)", hw), ("emulated (point-to-point)", emulated)],
        )
    )
    assert hw < emulated / 2
