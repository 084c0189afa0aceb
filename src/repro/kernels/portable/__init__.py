"""The kernel table: one entry point per kernel, whoever runs it.

:data:`KERNELS` holds each kernel once.  Stream, FFT, HPL, K-Means, BC and
Smith-Waterman are one program each, ``main(ctx, group=None, **params)``,
that runs its member body over ``ctx.team(group or ctx.places())`` and
collects from the members itself: ``simulate`` runs it with ``modelled``
parameters and builds the result with ``report``, ``repro serve`` runs it
over a job's group, and ``build_program`` with the small ``defaults`` on
either backend (:class:`~repro.xrt.backend.SimBackend`, one OS process per
place).  *Portable* only means that what a program hands ``ctx`` pickles,
so results are bit-identical across backends, the property the conformance
suite (:mod:`repro.xrt.conformance`) is built on.  RandomAccess
(:mod:`.programs`) and UTS (:mod:`.uts_program`) keep a portable copy
beside simulator drivers that pass live objects no wire can carry.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, NamedTuple, Optional

from repro.errors import KernelError
from repro.harness.calibration import DEFAULT_CALIBRATION
from repro.kernels.bc import bc as _bc
from repro.kernels.fft import fft as _fft
from repro.kernels.hpl import hpl as _hpl
from repro.kernels.kmeans import kmeans as _kmeans
from repro.kernels.portable.programs import ra_check_sizes, ra_main, spmd
from repro.kernels.portable.uts_program import uts_main
from repro.kernels.randomaccess import ra as _ra
from repro.kernels.smithwaterman import sw as _sw
from repro.kernels.stream import stream as _stream
from repro.kernels.uts import uts as _uts


class Kernel(NamedTuple):
    """A row of :data:`KERNELS`: ``main(ctx, group=None, **params)``, its small
    ``defaults``, ``modelled(places, config, **kw)`` (``simulate``'s keywords as
    parameters) and ``report(result, params, places, sim_time)`` (its
    :class:`~repro.harness.results.KernelResult`); or, for RandomAccess and
    UTS, the simulator ``driver(rt, **modelled)`` that ``simulate`` runs."""

    main: Callable
    defaults: dict
    modelled: Callable
    report: Optional[Callable] = None
    driver: Optional[Callable] = None


_CAL = {"calibration": DEFAULT_CALIBRATION}

#: each kernel once (its program's defaults are small conformance-scale problems)
KERNELS: dict[str, Kernel] = {
    "bc": Kernel(_bc.bc_main, _bc.PROGRAM_DEFAULTS, _bc.bc_modelled, _bc.bc_report),
    "fft": Kernel(_fft.fft_main, {"n1": 16, "n2": 16, "seed": 5, "modeled_elements_per_place": None,
                                  **_CAL}, _fft.fft_modelled, _fft.fft_report),
    "hpl": Kernel(_hpl.hpl_main, {"n": 64, "nb": 8, "seed": 7, "grid": None, "modeled_n": None,
                                  "modeled_nb": 360, **_CAL}, _hpl.hpl_modelled, _hpl.hpl_report),
    "kmeans": Kernel(_kmeans.kmeans_main, _kmeans.PROGRAM_DEFAULTS, _kmeans.kmeans_modelled,
                     _kmeans.kmeans_report),
    "randomaccess": Kernel(ra_main, {"log2_table": 12, "updates_per_place": 2048},
                           _ra.ra_modelled, driver=_ra.run_randomaccess),
    "smithwaterman": Kernel(_sw.sw_main, {"target_len": 512, "query_len": 32, "seed": 13,
                                          "iterations": 1, "modeled_query": None,
                                          "modeled_share": None, **_CAL},
                            _sw.sw_modelled, _sw.sw_report),
    "stream": Kernel(_stream.stream_main, {"n_per_place": 4096, "iterations": 4, "alpha": 3.0,
                                           "modeled_per_place": None},
                     _stream.stream_modelled, _stream.stream_report),
    "uts": Kernel(uts_main, {"depth": 9, "b0": 4.0, "seed": 19, "rng_mode": "splitmix"},
                  _uts.uts_modelled, driver=_uts.run_uts),
}

PORTABLE_KERNELS = sorted(KERNELS)


def program_defaults(kernel: str) -> dict:
    """A copy of ``kernel``'s default parameter set (KernelError if unknown)."""
    try:
        return dict(KERNELS[kernel].defaults)
    except KeyError:
        raise KernelError(
            f"no portable program for kernel {kernel!r}; "
            f"choose from {PORTABLE_KERNELS}"
        ) from None


def program_params(kernel: str, params: dict) -> dict:
    """``kernel``'s defaults with ``params`` applied (KernelError if the
    kernel or a parameter is unknown, or HPL's, FFT's or RandomAccess's sizes
    are bad — checked here so a bad run fails before any place starts)."""
    p = program_defaults(kernel)
    unknown = set(params) - set(p)
    if unknown:
        raise KernelError(
            f"unknown parameter(s) {sorted(unknown)} for portable kernel "
            f"{kernel!r}; accepted: {sorted(p)}"
        )
    p.update(params)
    if kernel == "hpl":
        _hpl.check_sizes(p["n"], p["nb"])
    elif kernel == "fft":
        _fft.check_sizes(p["n1"], p["n2"])
    elif kernel == "randomaccess":
        ra_check_sizes(p["log2_table"], p["updates_per_place"])
    return p


def build_program(kernel: str, places: int, **params: Any) -> Callable:
    """The portable ``main(ctx)`` for ``kernel`` with ``params`` overrides."""
    kwargs = program_params(kernel, params)  # validates the kernel name first
    bound = functools.partial(KERNELS[kernel].main, **kwargs)
    bound.__name__ = f"portable:{kernel}"  # type: ignore[attr-defined]
    return bound


__all__ = [
    "KERNELS", "PORTABLE_KERNELS", "Kernel", "build_program", "program_defaults",
    "program_params", "spmd",
]
