"""The Stream member body and the FFT host check as they were before each
worked at its working set, kept as memory oracles for
:func:`repro.kernels.stream.stream.stream_body` and
:func:`repro.kernels.fft.fft.fft_report`.

``stream_body_round_by_round`` runs a triad between charges, so on the
simulator every member holds its three arrays until its last charge has
elapsed: at 64 places all 64 members' arrays are alive at once.
``fft_report_out_of_place`` keeps the input, its transform, their difference,
two magnitude arrays and two more for the tolerance bound, where the in-place
check keeps one complex buffer and two real ones.  Both give the same results, bit for bit.
"""

import numpy as np

from repro.harness.results import KernelResult
from repro.kernels.fft.fft import fft_input, fft_params
from repro.kernels.stream.stream import _round, stream_restore, verdict


def stream_body_round_by_round(ctx, p: dict, team):
    stream_restore(ctx, -1, None, p, team)
    for _ in range(p["iterations"]):
        yield _round(ctx, p, team)
    return verdict(ctx.store.pop(("stream", team)), p["alpha"])


def fft_report_out_of_place(result: dict, params: dict, places: int, sim_time: float) -> KernelResult:
    n1, n2 = params["n1"], params["n2"]
    spectrum = result["spectrum"]
    expected = np.fft.fft(fft_input(params["seed"], n1, n2).reshape(-1))
    err, magnitude = np.abs(spectrum - expected), np.abs(expected)
    atol = 1e-6 * max(1, magnitude.max())
    verified = bool(np.all(err <= atol + 1e-5 * magnitude))
    total = fft_params(n1, n2, params["seed"], places, params["modeled_elements_per_place"],
                       params["calibration"])["total_flops"]
    return KernelResult.of("fft", result, places, sim_time, total / sim_time, "flop/s",
                           verified=verified, n1=n1, n2=n2, max_err=float(err.max()))
