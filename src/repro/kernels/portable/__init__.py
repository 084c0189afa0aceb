"""Portable kernel programs: one program text, any execution backend.

There is one ``ctx`` (:class:`~repro.runtime.activity.ActivityContext`) on
both backends; *portable* only means that what a program hands it pickles —
module-level activity functions, plain-data arguments, mailbox messages,
state in ``ctx.store``.  The programs therefore run unmodified on the
discrete-event simulator (:class:`~repro.xrt.backend.SimBackend`) and on
one-OS-process-per-place (:class:`~repro.xrt.backend.ProcsBackend`), and
their results are deterministic bit-for-bit for a fixed (kernel, places,
params) — the property the differential conformance suite
(:mod:`repro.xrt.conformance`) is built on.  Stream, FFT, HPL, K-Means, BC
and Smith-Waterman run their simulator kernel's own member body;
RandomAccess (:mod:`.programs`) and UTS (:mod:`.uts_program`) keep a
portable copy beside drivers that pass live objects (finish objects,
closures, GLB fabric) no real wire can carry.

``build_program(kernel, places, **params)`` returns the ``main`` activity
for any of the eight kernels; parameters default to small conformance-scale
problems (UTS defaults to the CLI's tree so ``repro run uts --backend procs``
matches the classic simulator checksum).
"""

from __future__ import annotations

import functools
from typing import Any, Callable

from repro.errors import KernelError
from repro.kernels.bc import bc as _bc
from repro.kernels.fft import fft as _fft
from repro.kernels.hpl import hpl as _hpl
from repro.kernels.kmeans import kmeans as _kmeans
from repro.kernels.portable.programs import ra_check_sizes, ra_main, spmd
from repro.kernels.portable.uts_program import uts_main
from repro.kernels.smithwaterman import sw as _sw
from repro.kernels.stream import stream as _stream

#: per-kernel (main, small-scale defaults)
_PROGRAMS: dict[str, tuple[Callable, dict]] = {
    "stream": (_stream.stream_main, {"n_per_place": 4096, "iterations": 4, "alpha": 3.0}),
    "randomaccess": (ra_main, {"log2_table": 12, "updates_per_place": 2048}),
    "fft": (_fft.fft_main, {"n1": 16, "n2": 16, "seed": 5}),
    "hpl": (_hpl.hpl_main, {"n": 64, "nb": 8, "seed": 7}),
    "uts": (uts_main, {"depth": 9, "b0": 4.0, "seed": 19, "rng_mode": "splitmix"}),
    "kmeans": (_kmeans.kmeans_main, _kmeans.PROGRAM_DEFAULTS),
    "smithwaterman": (_sw.sw_main, {"target_len": 512, "query_len": 32, "seed": 13}),
    "bc": (_bc.bc_main, _bc.PROGRAM_DEFAULTS),
}

PORTABLE_KERNELS = sorted(_PROGRAMS)


def program_defaults(kernel: str) -> dict:
    """A copy of ``kernel``'s default parameter set (KernelError if unknown)."""
    try:
        return dict(_PROGRAMS[kernel][1])
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
    bound = functools.partial(_PROGRAMS[kernel][0], **kwargs)
    bound.__name__ = f"portable:{kernel}"  # type: ignore[attr-defined]
    return bound


__all__ = ["PORTABLE_KERNELS", "build_program", "program_defaults", "program_params", "spmd"]
