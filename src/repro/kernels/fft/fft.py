"""Global FFT (paper Section 5.1).

The implementation alternates non-overlapping phases of computation and
communication on the array viewed as a 2D matrix: global transpose, per-row
FFTs, global transpose (with twiddle multiplication), per-row FFTs, and a
final global transpose.  Each global transpose is local data shuffling, an
All-To-All collective, and another round of local shuffling.

Index algebra (N = n1*n2, input index k = k1*n2 + k2, output j = j2*n1 + j1)::

    X[j2*n1 + j1] = sum_k2 [ (sum_k1 x[k1*n2+k2] w_n1^{j1 k1}) w_N^{j1 k2} ] w_n2^{j2 k2}

so the pipeline is: transpose (n1 x n2 -> n2 x n1), row FFTs of length n1,
twiddle by w_N^{j1 k2}, transpose, row FFTs of length n2, transpose.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.errors import KernelError
from repro.harness.calibration import DEFAULT_CALIBRATION, Calibration
from repro.harness.results import KernelResult
from repro.runtime import PlaceGroup, broadcast_spawn
from repro.runtime.runtime import ApgasRuntime
from repro.sim.rng import RngStream


def fft_six_step_reference(x: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Single-node six-step FFT; must equal ``np.fft.fft(x)`` (tested)."""
    if n1 * n2 != len(x):
        raise KernelError("n1 * n2 must equal len(x)")
    N = len(x)
    B = x.reshape(n1, n2).T.copy()  # (n2, n1)
    B = np.fft.fft(B, axis=1)
    k2 = np.arange(n2)[:, None]
    j1 = np.arange(n1)[None, :]
    B *= np.exp(-2j * np.pi * (k2 * j1) / N)
    D = B.T.copy()  # (n1, n2)
    D = np.fft.fft(D, axis=1)
    return D.T.reshape(-1)  # X[j2*n1 + j1] = D[j1, j2]


def within_allclose(err: np.ndarray, magnitude: np.ndarray, atol: float) -> bool:
    """``np.allclose(result, expected, atol=atol)`` (default ``rtol``) from
    ``err = |result - expected|`` and ``magnitude = |expected|``, for a finite
    ``expected``: every ``err <= atol + 1e-5 * magnitude``."""
    return bool(np.all(err <= atol + 1e-5 * magnitude))


def run_fft(
    rt: ApgasRuntime,
    n1: int,
    n2: int,
    seed: int = 0,
    modeled_elements_per_place: Optional[int] = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> KernelResult:
    """Distributed 1D FFT of N = n1*n2 complex values over every place.

    ``n1`` and ``n2`` must be divisible by the place count.  The real math
    runs on the (n1, n2) problem; ``modeled_elements_per_place`` charges
    compute and wire time for the paper-scale problem instead (2 GB/place).
    """
    pg = PlaceGroup.world(rt)
    places = list(pg)
    p = len(places)
    if n1 % p or n2 % p:
        raise KernelError(f"n1={n1} and n2={n2} must be divisible by places={p}")
    N = n1 * n2
    rpp1, rpp2 = n1 // p, n2 // p
    elems = N // p if modeled_elements_per_place is None else modeled_elements_per_place
    team = rt.team(places)
    rng = RngStream(seed, "fft/input")
    x = rng.uniform(-1, 1, size=N) + 1j * rng.uniform(-1, 1, size=N)
    outputs = {}

    # modeled sizes: each transpose moves all local data, split evenly by pair
    wire_per_pair = max(1, (16 * elems) // p)
    modeled_len = max(4, elems * p)  # modeled total transform length
    fft_charge = 0.5 * 5.0 * elems * math.log2(modeled_len)  # per FFT phase

    def transpose(ctx, local, rows_out, cols_out):
        """Global transpose of the distributed matrix (local shuffle +
        All-To-All + local shuffle)."""
        rows_in = local.shape[0]
        # block q = columns [q*rows_out, (q+1)*rows_out): one copy makes all p contiguous
        blocks = np.ascontiguousarray(local.reshape(rows_in, p, rows_out).transpose(1, 0, 2))
        received = yield team.alltoall(ctx, list(blocks), nbytes_per_pair=wire_per_pair)
        out = np.empty((rows_out, cols_out), dtype=np.complex128)
        # out[:, q*rows_in:(q+1)*rows_in] = received[q].T, all q in one copy
        np.concatenate(received, axis=0, out=out.T)
        return out

    def body(ctx):
        place = ctx.here
        local = x.reshape(n1, n2)[place * rpp1 : (place + 1) * rpp1].copy()
        # phase 1: global transpose -> rows are original columns
        local = yield from transpose(ctx, local, rpp2, n1)
        # phase 2: per-row FFTs of length n1
        local = np.fft.fft(local, axis=1)
        yield ctx.compute(flops=fft_charge, flop_rate=calibration.fft_flops)
        # phase 3: twiddle factors w_N^{j1 k2}
        k2 = (place * rpp2 + np.arange(rpp2))[:, None]
        j1 = np.arange(n1)[None, :]
        local = local * np.exp(-2j * np.pi * (k2 * j1) / N)
        # phase 4: global transpose back
        local = yield from transpose(ctx, local, rpp1, n2)
        # phase 5: per-row FFTs of length n2
        local = np.fft.fft(local, axis=1)
        yield ctx.compute(flops=fft_charge, flop_rate=calibration.fft_flops)
        # phase 6: final global transpose into natural output order
        local = yield from transpose(ctx, local, rpp2, n1)
        outputs[place] = local.reshape(-1)

    def main(ctx):
        yield from broadcast_spawn(ctx, pg, body)

    rt.run(main)
    result = np.concatenate([outputs[q] for q in range(p)])
    expected = np.fft.fft(x)
    err, magnitude = np.abs(result - expected), np.abs(expected)
    verified = within_allclose(err, magnitude, atol=1e-6 * max(1, magnitude.max()))
    total_flops = 5.0 * (elems * p) * math.log2(modeled_len)
    rate = total_flops / rt.now
    return KernelResult(
        kernel="fft",
        places=p,
        sim_time=rt.now,
        value=rate,
        unit="flop/s",
        per_core=rate / p,
        verified=verified,
        extra={"n1": n1, "n2": n2, "max_err": float(err.max())},
    )
