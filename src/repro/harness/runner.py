"""Protocol-faithful simulation runs at benchmark-friendly sizes.

``simulate(kernel, places)`` builds a runtime on the full Power 775 constants
and runs the real distributed kernel with scaled-down *actual* data but
paper-scale *modeled* charges, so a run completes in seconds of wall-clock
while the simulated time reflects the paper's problem sizes.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import KernelError
from repro.glb import GlbConfig
from repro.harness.results import KernelResult
from repro.machine.config import MachineConfig
from repro.obs import Observability
from repro.resilient import require_resilient
from repro.runtime.runtime import ApgasRuntime


def make_runtime(
    places: int,
    config: Optional[MachineConfig] = None,
    trace: bool = False,
    chaos: Optional[str] = None,
    race: bool = False,
    **overrides,
) -> ApgasRuntime:
    """A runtime on the full Power 775 constants (``overrides`` patch the config).

    ``trace=True`` enables the event tracer (``rt.obs.trace``); ``chaos``
    takes a fault-injection spec string (see :class:`repro.chaos.ChaosSpec`)
    and switches the transport into resilient mode.  ``race=True`` turns on
    the dynamic determinacy-race detector (``rt.race``).
    """
    cfg = config or MachineConfig()
    if overrides:
        cfg = cfg.with_(**overrides)
    return ApgasRuntime(
        places=places, config=cfg, obs=Observability(trace=trace), chaos=chaos, race=race,
    )


def simulate(
    kernel: str,
    places: int,
    config: Optional[MachineConfig] = None,
    trace: bool = False,
    chaos: Optional[str] = None,
    resilient: bool = False,
    race: bool = False,
    **kwargs,
) -> KernelResult:
    """Run one kernel at one scale inside the simulator.

    Every result carries a metrics snapshot in ``extra["metrics"]``; with
    ``trace=True`` the populated tracer rides in ``extra["trace"]``.  With a
    ``chaos`` spec the run executes under deterministic fault injection; the
    injector rides in ``extra["chaos"]`` so callers can inspect dead places.
    ``resilient`` turns on checkpoint/restore and elastic recovery for the
    kernels in :data:`repro.resilient.RESILIENT_KERNELS`.  ``race=True`` runs
    under the dynamic race detector; the detector rides in ``extra["race"]``.
    """
    try:
        runner = _RUNNERS[kernel]
    except KeyError:
        raise KernelError(f"unknown kernel {kernel!r}; choose from {sorted(_RUNNERS)}") from None
    if resilient:
        require_resilient(kernel)
        kwargs["resilient"] = True
    rt = make_runtime(places, config, trace=trace, chaos=chaos, race=race)
    result = runner(rt, **kwargs)
    result.extra["metrics"] = rt.obs.metrics.snapshot()
    if trace:
        result.extra["trace"] = rt.obs.trace
    if rt.chaos is not None:
        result.extra["chaos"] = rt.chaos
    if rt.race is not None:
        result.extra["race"] = rt.race
    return result


def _stream(rt, **kw):
    from repro.kernels.stream import run_stream

    kw.setdefault("elements_per_place", 62_500_000)  # 1.5 GB modeled
    kw.setdefault("iterations", 4)
    return run_stream(rt, **kw)


def _randomaccess(rt, **kw):
    from repro.kernels.randomaccess import run_randomaccess

    kw.setdefault("table_words_per_place", 1 << 28)  # 2 GB modeled
    kw.setdefault("updates_per_place", 8192)  # sampled slice of the 4x stream
    kw.setdefault("materialize", False)
    # each simulated update models its share of the full 4x-table stream
    kw.setdefault(
        "model_updates_factor", 4 * kw["table_words_per_place"] / kw["updates_per_place"]
    )
    return run_randomaccess(rt, **kw)


def _fft(rt, **kw):
    from repro.kernels.fft import run_fft

    p = rt.n_places
    kw.setdefault("n1", 8 * p)
    kw.setdefault("n2", 8 * p)
    kw.setdefault("modeled_elements_per_place", 1 << 27)  # 2 GB of complex
    return run_fft(rt, **kw)


def _hpl(rt, **kw):
    from repro.kernels.hpl import run_hpl

    kw.setdefault("NB", 16)
    kw.setdefault("N", max(128, 16 * 8 * int(rt.n_places**0.5)))
    if "modeled_N" not in kw:
        # the paper's sizing: ~55% of host memory
        hosts = -(-rt.n_places // rt.config.cores_per_octant)
        kw["modeled_N"] = int((0.55 * rt.config.octant_memory_bytes * hosts / 8) ** 0.5)
    return run_hpl(rt, **kw)


def _uts(rt, **kw):
    from repro.kernels.uts import run_uts

    kw.setdefault("depth", 9)
    kw.setdefault("time_dilation", 100.0)
    kw.setdefault("glb_config", GlbConfig(chunk_items=64))
    return run_uts(rt, **kw)


def _kmeans(rt, **kw):
    from repro.kernels.kmeans import run_kmeans

    kw.setdefault("points_per_place", 40_000)
    kw.setdefault("k", 4096)
    kw.setdefault("dim", 12)
    kw.setdefault("iterations", 5)
    return run_kmeans(rt, **kw)


def _smithwaterman(rt, **kw):
    from repro.kernels.smithwaterman import run_smith_waterman

    kw.setdefault("short_len", 4000)
    kw.setdefault("long_per_place", 40_000)
    kw.setdefault("iterations", 5)
    return run_smith_waterman(rt, **kw)


def _bc(rt, **kw):
    from repro.kernels.bc import run_bc

    kw.setdefault("scale", 10)
    kw.setdefault("modeled_scale", 18)
    return run_bc(rt, **kw)


_RUNNERS = {
    "stream": _stream,
    "randomaccess": _randomaccess,
    "fft": _fft,
    "hpl": _hpl,
    "uts": _uts,
    "kmeans": _kmeans,
    "smithwaterman": _smithwaterman,
    "bc": _bc,
}

KERNELS = sorted(_RUNNERS)
