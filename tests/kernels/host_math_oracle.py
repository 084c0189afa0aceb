"""The Stream member body, the FFT collection and the FFT host check as they
were before each worked at its working set, kept as memory oracles for
:func:`repro.kernels.stream.stream.stream_body`,
:func:`repro.kernels.fft.fft.fft_main` and
:func:`repro.kernels.fft.fft.fft_report`.

``stream_body_round_by_round`` runs a triad between charges, so on the
simulator every member holds its three arrays until its last charge has
elapsed: at 64 places all 64 members' arrays are alive at once.
``fft_main_concatenated`` copies the members' row blocks into one spectrum,
which it hands on as a single block, so the check's temporaries are
spectrum-sized.  ``fft_report_out_of_place`` keeps the input, its transform,
their difference, two magnitude arrays and two more for the tolerance bound,
where the in-place check keeps one complex buffer and two block-sized real
ones.  All give the same results, bit for bit.
"""

from typing import Optional

import numpy as np

from repro.harness.calibration import DEFAULT_CALIBRATION, Calibration
from repro.harness.results import KernelResult, checksum_bytes
from repro.kernels.fft.fft import fft_body, fft_input, fft_params
from repro.kernels.stream.stream import _round, stream_restore, verdict
from repro.runtime.broadcast import broadcast_gather


def stream_body_round_by_round(ctx, p: dict, team):
    stream_restore(ctx, -1, None, p, team)
    for _ in range(p["iterations"]):
        yield _round(ctx, p, team)
    return verdict(ctx.store.pop(("stream", team)), p["alpha"])


def fft_main_concatenated(ctx, group=None, *, n1: int, n2: int, seed: int,
                          modeled_elements_per_place: Optional[int] = None,
                          calibration: Calibration = DEFAULT_CALIBRATION):
    team = ctx.team(group or ctx.places())
    p = fft_params(n1, n2, seed, team.size, modeled_elements_per_place, calibration)
    spectrum = np.concatenate((yield from broadcast_gather(ctx, team, fft_body, p, team))).reshape(-1)
    return {"checksum": checksum_bytes(spectrum), "n": n1 * n2, "spectrum_rows": [spectrum]}


def fft_report_out_of_place(result: dict, params: dict, places: int, sim_time: float) -> KernelResult:
    n1, n2 = params["n1"], params["n2"]
    spectrum = np.concatenate(result["spectrum_rows"], axis=None)
    expected = np.fft.fft(fft_input(params["seed"], n1, n2).reshape(-1))
    err, magnitude = np.abs(spectrum - expected), np.abs(expected)
    atol = 1e-6 * max(1, magnitude.max())
    verified = bool(np.all(err <= atol + 1e-5 * magnitude))
    total = fft_params(n1, n2, params["seed"], places, params["modeled_elements_per_place"],
                       params["calibration"])["total_flops"]
    return KernelResult.of("fft", result, places, sim_time, total / sim_time, "flop/s",
                           verified=verified, n1=n1, n2=n2, max_err=float(err.max()))
