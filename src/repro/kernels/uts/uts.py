"""Distributed UTS on top of GLB (paper Section 6).

Every worker maintains a list of pending sibling intervals; idle workers steal
— random attempts first, lifelines after — and the root finish (FINISH_DENSE
in the refined configuration) detects global termination.  The traversal rate
per place is calibrated to the paper's 10.929 M nodes/s.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import KernelError
from repro.glb import Glb, GlbConfig, GlbStats
from repro.harness.calibration import DEFAULT_CALIBRATION, Calibration
from repro.harness.results import KernelResult, checksum_bytes
from repro.kernels.uts.tree import UtsBag, UtsParams
from repro.resilient import run_resilient_epochs
from repro.runtime.broadcast import PlaceGroup
from repro.runtime.runtime import ApgasRuntime


def build_uts(
    rt: ApgasRuntime,
    depth: int,
    b0: float = 4.0,
    seed: int = 19,
    rng_mode: str = "splitmix",
    glb_config: Optional[GlbConfig] = None,
    steal_all_intervals: bool = True,
    time_dilation: float = 1.0,
    calibration: Calibration = DEFAULT_CALIBRATION,
    resilient: bool = False,
    group: Optional[PlaceGroup] = None,
):
    """Build the UTS program over ``group``; returns ``(main, finalize)``.

    The balancing fabric (workers, victim sets, lifelines) lives strictly
    inside the group; the node count depends only on the tree parameters.
    The result is nodes/s aggregate and per core; ``extra`` carries the GLB
    statistics and the exact node count.

    ``time_dilation``: the paper's runs last 90-200 s — around 10^8 nodes per
    place — which a Python tree expansion cannot reach wall-clock.  With
    dilation k, each node is charged k times its calibrated cost, so a tree
    k times smaller reproduces the paper's work-to-latency ratio exactly (the
    steal/lifeline event structure is unchanged, only stretched).  Reported
    rates are scaled back by k.  Used by the at-scale benchmarks and
    documented in EXPERIMENTS.md.

    With ``resilient`` the traversal is a single checkpoint epoch, retried
    from scratch: GLB's tolerant root finish lets the survivors drain past a
    kill, the coordinator aborts the torn epoch, revives the dead place and
    re-runs the whole traversal on the healed machine.  The node count does
    not depend on how steals interleave, so the retry's count is exact.
    """
    params = UtsParams(b0=b0, depth=depth, seed=seed, rng_mode=rng_mode)
    config = glb_config or GlbConfig(chunk_items=4096)
    if time_dilation < 1.0:
        raise ValueError("time_dilation must be >= 1")
    if resilient and group is not None and list(group) != list(range(rt.n_places)):
        raise KernelError("resilient uts requires the whole-machine place group")
    effective_rate = calibration.uts_nodes_per_sec / time_dilation
    latest: list[Glb] = []  # the balancer of the last (committed) traversal

    def new_glb() -> Glb:
        glb = Glb(
            rt,
            root_bag=UtsBag.root(params, steal_all_intervals=steal_all_intervals),
            make_empty_bag=lambda: UtsBag(params, steal_all_intervals=steal_all_intervals),
            process_rate=effective_rate,
            config=config,
            group=group,
        )
        latest[:] = [glb]
        return glb

    if resilient:

        def restore(ctx, committed_epoch, blob):
            return None  # nothing to roll back: every attempt starts afresh

        def body(ctx, epoch, tag):
            if ctx.here != 0:
                return 0
            glb = new_glb()
            yield from glb.main(ctx)
            return glb.stats().total_processed

        def main(ctx):
            yield from run_resilient_epochs(ctx, 1, body, restore)

    else:
        main = new_glb().main

    def finalize(elapsed: Optional[float] = None) -> KernelResult:
        t = rt.now if elapsed is None else elapsed
        stats: GlbStats = latest[0].stats()
        rate = stats.total_processed / t * time_dilation if t > 0 else 0.0
        return KernelResult(
            kernel="uts",
            places=stats.places,
            sim_time=t,
            value=rate,
            unit="nodes/s",
            per_core=rate / stats.places,
            verified=None,  # cross-checked against sequential_count in tests
            extra={
                "nodes": stats.total_processed,
                "checksum": checksum_bytes(str(stats.total_processed).encode()),
                "glb": stats,
                "efficiency": stats.efficiency(effective_rate),
                "params": params,
                "time_dilation": time_dilation,
            },
        )

    return main, finalize


def run_uts(rt: ApgasRuntime, *args, **kwargs) -> KernelResult:
    """Traverse one geometric tree: build with :func:`build_uts`, run, finalize."""
    main, finalize = build_uts(rt, *args, **kwargs)
    rt.run(main)
    return finalize()


def uts_modelled(places: int, config, **kw) -> dict:
    """``simulate``'s keywords: a depth-9 tree, each node charged 100 times."""
    kw.setdefault("depth", 9)
    kw.setdefault("time_dilation", 100.0)
    kw.setdefault("glb_config", GlbConfig(chunk_items=64))
    return kw
