"""Portable kernel programs: one program text, any execution backend.

The simulator's full kernels pass live objects (finish objects, closures,
GLB fabric) through the in-process transport, which no real wire can carry.
There is one ``ctx`` (:class:`~repro.runtime.activity.ActivityContext`) on
both backends; *portable* only means that what a program hands it pickles —
module-level activity functions, plain-data arguments, mailbox messages,
state in ``ctx.store``.  The programs here therefore run unmodified on the
discrete-event simulator
(:class:`~repro.xrt.backend.SimBackend`) and on one-OS-process-per-place
(:class:`~repro.xrt.backend.ProcsBackend`).  They reuse the simulator
kernels' numerical cores, and their results are deterministic bit-for-bit
for a fixed (kernel, places, params) — the property the differential
conformance suite (:mod:`repro.xrt.conformance`) is built on.

``build_program(kernel, places, **params)`` returns the ``main`` activity
for any of the eight kernels; parameters default to small conformance-scale
problems (UTS defaults to the CLI's tree so ``repro run uts --backend procs``
matches the classic simulator checksum).
"""

from __future__ import annotations

import functools
from typing import Any, Callable

from repro.errors import KernelError
from repro.kernels.portable.programs import (
    bc_main,
    fft_main,
    hpl_main,
    kmeans_main,
    ra_main,
    spmd,
    stream_main,
    sw_main,
)
from repro.kernels.portable.uts_program import uts_main

#: per-kernel (main, small-scale defaults)
_PROGRAMS: dict[str, tuple[Callable, dict]] = {
    "stream": (stream_main, {"n_per_place": 4096, "iterations": 4, "alpha": 3.0, "seed": 11}),
    "randomaccess": (ra_main, {"log2_table": 12, "updates_per_place": 2048}),
    "fft": (fft_main, {"n1": 16, "n2": 16, "seed": 5}),
    "hpl": (hpl_main, {"n": 64, "nb": 8, "seed": 7}),
    "uts": (uts_main, {"depth": 9, "b0": 4.0, "seed": 19, "rng_mode": "splitmix"}),
    "kmeans": (kmeans_main, {"n_per_place": 256, "dim": 4, "k": 8, "iterations": 5, "seed": 3}),
    "smithwaterman": (sw_main, {"target_len": 512, "query_len": 32, "seed": 13}),
    "bc": (bc_main, {"scale": 7, "edge_factor": 8, "seed": 2}),
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
    kernel or a parameter is unknown)."""
    p = program_defaults(kernel)
    unknown = set(params) - set(p)
    if unknown:
        raise KernelError(
            f"unknown parameter(s) {sorted(unknown)} for portable kernel "
            f"{kernel!r}; accepted: {sorted(p)}"
        )
    p.update(params)
    return p


def build_program(kernel: str, places: int, **params: Any) -> Callable:
    """The portable ``main(ctx)`` for ``kernel`` with ``params`` overrides."""
    kwargs = program_params(kernel, params)  # validates the kernel name first
    bound = functools.partial(_PROGRAMS[kernel][0], **kwargs)
    bound.__name__ = f"portable:{kernel}"  # type: ignore[attr-defined]
    return bound


__all__ = ["PORTABLE_KERNELS", "build_program", "program_defaults", "program_params", "spmd"]
