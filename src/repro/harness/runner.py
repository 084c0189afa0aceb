"""Protocol-faithful simulation runs at benchmark-friendly sizes.

``simulate(kernel, places)`` builds a runtime on the full Power 775 constants
and runs the real distributed kernel with scaled-down *actual* data but
paper-scale *modeled* charges, so a run completes in seconds of wall-clock
while the simulated time reflects the paper's problem sizes.
"""

from __future__ import annotations

import functools
from typing import Optional

from repro.errors import KernelError
from repro.harness.results import KernelResult
from repro.kernels.portable import KERNELS, PORTABLE_KERNELS
from repro.kernels.portable.resilient import resilient_main
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
    """Run one kernel at one scale inside the simulator: its row of
    :data:`repro.kernels.portable.KERNELS` turns ``kwargs`` into parameters
    (``modelled``), runs ``main`` under ``rt.run`` and calls ``report``.

    Every result carries a metrics snapshot in ``extra["metrics"]``; with
    ``trace=True`` the populated tracer rides in ``extra["trace"]``.  With a
    ``chaos`` spec the run executes under deterministic fault injection; the
    injector rides in ``extra["chaos"]`` so callers can inspect dead places.
    ``resilient`` turns on checkpoint/restore and elastic recovery for the
    kernels in :data:`repro.resilient.RESILIENT_KERNELS`.  ``race=True`` runs
    under the dynamic race detector; the detector rides in ``extra["race"]``.
    """
    try:
        row = KERNELS[kernel]
    except KeyError:
        raise KernelError(f"unknown kernel {kernel!r}; choose from {PORTABLE_KERNELS}") from None
    if resilient:
        require_resilient(kernel)
    rt = make_runtime(places, config, trace=trace, chaos=chaos, race=race)
    params = row.modelled(places, rt.config, **kwargs)
    if row.driver is not None:
        if resilient:
            params["resilient"] = True
        result = row.driver(rt, **params)
    else:
        main = functools.partial(resilient_main, kernel=kernel) if resilient else row.main
        result = row.report(rt.run(functools.partial(main, **params)), params, places, rt.now)
    result.extra["metrics"] = rt.obs.metrics.snapshot()
    if trace:
        result.extra["trace"] = rt.obs.trace
    if rt.chaos is not None:
        result.extra["chaos"] = rt.chaos
    if rt.race is not None:
        result.extra["race"] = rt.race
    return result
