"""The serving layer's kernel catalog.

A job runs its kernel's entry point from :data:`repro.kernels.portable.KERNELS`
over the places the scheduler carved out, from the control place: the row's
``modelled`` turns the job's parameters, in ``simulate``'s vocabulary, into
the program's, and its ``report`` builds the result.  The defaults are sized
for serving (each job milliseconds of simulated time), and every kernel keys
its data by team *rank*, so a job's result depends only on its parameters
and its width.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.glb import GlbConfig
from repro.kernels.portable import KERNELS
from repro.kernels.uts import build_uts
from repro.runtime.broadcast import PlaceGroup
from repro.runtime.runtime import ApgasRuntime


@dataclass(frozen=True)
class KernelProfile:
    """Serving defaults for one kernel: width range and program parameters."""

    kernel: str
    places_min: int
    places_max: int
    params: dict = field(default_factory=dict)

    def merged(self, overrides: dict) -> dict:
        out = dict(self.params)
        out.update(overrides)
        return out


#: kernels the serving layer can schedule, with their default footprints
KERNEL_PROFILES: dict[str, KernelProfile] = {
    "stream": KernelProfile("stream", 2, 4, {
        "elements_per_place": 1_000_000, "iterations": 2, "actual_elements": 2048}),
    "kmeans": KernelProfile("kmeans", 2, 4, {
        "points_per_place": 10_000, "k": 256, "dim": 4, "iterations": 2,
        "actual_points": 256, "actual_k": 8}),
    "smithwaterman": KernelProfile("smithwaterman", 2, 4, {
        "short_len": 2000, "long_per_place": 10_000, "iterations": 2,
        "actual_short": 32, "actual_long": 128}),
    "uts": KernelProfile("uts", 2, 4, {
        "depth": 5, "b0": 4.0, "glb_config": GlbConfig(chunk_items=256)}),
}

SERVABLE_KERNELS = tuple(sorted(KERNEL_PROFILES))


def run_job(ctx, rt: ApgasRuntime, request, places: tuple, t_start: float):
    """``result = yield from run_job(...)``: ``request``'s kernel over ``places``,
    timed from ``t_start``; the job's seed seeds a kernel that takes one."""
    if request.kernel == "uts":  # its GLB driver, until UTS runs its program's body
        main, finalize = build_uts(rt, group=PlaceGroup(places), **request.params)
        yield from main(ctx)
        return finalize(elapsed=ctx.now - t_start)
    row = KERNELS[request.kernel]
    kw = dict(request.params)
    if "seed" in row.defaults:
        kw.setdefault("seed", request.seed)
    params = row.modelled(len(places), rt.config, **kw)
    result = yield from row.main(ctx, group=places, **params)
    return row.report(result, params, len(places), ctx.now - t_start)
