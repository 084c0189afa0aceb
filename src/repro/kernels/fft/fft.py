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

One entry point, :func:`fft_main`, runs :func:`fft_body` at every member;
member ``q`` of ``P`` holds rows ``n*q//P`` up to ``n*(q+1)//P`` of each
``n``-row matrix.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.errors import KernelError
from repro.harness.calibration import DEFAULT_CALIBRATION, Calibration
from repro.harness.results import KernelResult, checksum_bytes
from repro.runtime.broadcast import broadcast_gather
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
    ``expected``: every ``err <= atol + 1e-5 * magnitude``.  The bound is
    formed in ``magnitude``'s buffer, which the caller gives up."""
    magnitude *= 1e-5
    magnitude += atol
    return bool(np.all(err <= magnitude))


def check_sizes(n1: int, n2: int) -> None:
    """Refuse a transform that is not ``n1 x n2`` with both positive."""
    if n1 < 1 or n2 < 1:
        raise KernelError(f"FFT dimensions must be positive, got n1={n1}, n2={n2}")


def _cuts(n: int, places: int) -> list:
    """Member ``q`` holds rows ``cuts[q]:cuts[q + 1]`` of an ``n``-row matrix."""
    return [n * q // places for q in range(places + 1)]


def fft_input(seed: int, n1: int, n2: int, rank: int = 0, places: int = 1) -> np.ndarray:
    """Member ``rank``'s rows of the ``(n1, n2)`` complex input (the defaults:
    all of it), real and imaginary parts uniform in [-1, 1).  The input is one
    stream keyed by ``seed``, parts interleaved, and a member jumps straight
    to its rows: no member draws the whole input."""
    cuts = _cuts(n1, places)
    rng = RngStream(seed, "fft/input").skip(2 * n2 * cuts[rank])
    draws = rng.uniform(-1, 1, size=(cuts[rank + 1] - cuts[rank], 2 * n2))
    return draws.view(np.complex128)


def fft_params(n1: int, n2: int, seed: int, places: int,
               modeled_elements_per_place: Optional[int] = None,
               calibration: Calibration = DEFAULT_CALIBRATION) -> dict:
    """The body's parameters: the real ``(n1, n2)`` problem, and the wire and
    compute charges of the modeled one (default: the real one)."""
    check_sizes(n1, n2)
    elems = n1 * n2 // places if modeled_elements_per_place is None else modeled_elements_per_place
    log_len = math.log2(max(4, elems * places))  # of the modeled total transform length
    return {
        "n1": n1, "n2": n2, "seed": seed, "flop_rate": calibration.fft_flops,
        "wire_per_pair": max(1, (16 * elems) // places),  # a transpose moves all local data
        "flops": 0.5 * 5.0 * elems * log_len,  # per FFT phase
        "total_flops": 5.0 * (elems * places) * log_len,
    }


def _transpose(ctx, team, local: np.ndarray, rows: int, cuts: list, nbytes_per_pair: int):
    """Global transpose of the distributed ``rows``-row matrix: ``local``'s
    columns cut at ``cuts``, one block per member, go All-To-All, and the
    received blocks are laid side by side, transposed."""
    blocks = [local[:, cuts[q] : cuts[q + 1]] for q in range(team.size)]
    received = yield team.alltoall(ctx, blocks, nbytes_per_pair=nbytes_per_pair)
    rank = team.rank(ctx.here)
    out = np.empty((cuts[rank + 1] - cuts[rank], rows), dtype=np.complex128)
    # out[:, sender's rows] = received[sender].T, every sender in one copy
    np.concatenate(received, axis=0, out=out.T)
    return out


def twiddle(local: np.ndarray, k2_start: int, n1: int, n2: int) -> np.ndarray:
    """``local`` (rows ``k2_start...`` of the ``n2 x n1`` matrix) times the
    twiddle factors ``w_N^{j1 k2}``, as ``local * tw`` in that operand order,
    in one block-sized buffer.  Written out because ``local * np.exp(...)``
    leaves the order to NumPy: from 256 KiB it elides the temporary into
    ``tw *= local``, whose complex products round differently."""
    k2 = np.arange(k2_start, k2_start + local.shape[0])[:, None]
    tw = -2j * np.pi * (k2 * np.arange(n1)[None, :])
    tw /= n1 * n2
    np.exp(tw, out=tw)
    return np.multiply(local, tw, out=tw)


def fft_body(ctx, p: dict, team):
    """A member's whole run, from its input rows to its rows of the spectrum,
    which it returns."""
    rank, n1, n2 = team.rank(ctx.here), p["n1"], p["n2"]
    cuts1, cuts2 = _cuts(n1, team.size), _cuts(n2, team.size)
    wire = p["wire_per_pair"]
    local = fft_input(p["seed"], n1, n2, rank, team.size)
    # phase 1: global transpose -> rows are original columns
    local = yield from _transpose(ctx, team, local, n1, cuts2, wire)
    # phase 2: per-row FFTs of length n1
    local = np.fft.fft(local, axis=1)
    yield ctx.compute(flops=p["flops"], flop_rate=p["flop_rate"])
    # phase 3: twiddle factors w_N^{j1 k2}
    local = twiddle(local, cuts2[rank], n1, n2)
    # phase 4: global transpose back
    local = yield from _transpose(ctx, team, local, n2, cuts1, wire)
    # phase 5: per-row FFTs of length n2
    local = np.fft.fft(local, axis=1)
    yield ctx.compute(flops=p["flops"], flop_rate=p["flop_rate"])
    # phase 6: final global transpose into natural output order
    return (yield from _transpose(ctx, team, local, n1, cuts2, wire))


def fft_main(ctx, group=None, *, n1: int, n2: int, seed: int,
             modeled_elements_per_place: Optional[int] = None,
             calibration: Calibration = DEFAULT_CALIBRATION):
    """1D FFT of the (n1, n2) problem over ``group`` (default: every
    place), run at place 0, a member or not, which collects the members'
    rows of the spectrum; ``modeled_elements_per_place`` charges compute and
    wire time for a paper-scale problem instead (2 GB/place).

    The spectrum stays in the members' row blocks, in rank order
    (``spectrum_rows``): they are digested one after another, the bytes of
    the whole spectrum, and never concatenated."""
    team = ctx.team(group or ctx.places())
    p = fft_params(n1, n2, seed, team.size, modeled_elements_per_place, calibration)
    blocks = yield from broadcast_gather(ctx, team, fft_body, p, team)
    return {"checksum": checksum_bytes(*blocks), "n": n1 * n2, "spectrum_rows": blocks}


def fft_modelled(places: int, config, n1: Optional[int] = None, n2: Optional[int] = None,
                 seed: int = 0, modeled_elements_per_place: int = 1 << 27,
                 calibration: Calibration = DEFAULT_CALIBRATION) -> dict:
    """``simulate``'s keywords: an ``8P x 8P`` transform by default, charged
    for 2 GB of complex values a place."""
    return {"n1": 8 * places if n1 is None else n1, "n2": 8 * places if n2 is None else n2,
            "seed": seed, "modeled_elements_per_place": modeled_elements_per_place,
            "calibration": calibration}


def fft_report(result: dict, params: dict, places: int, sim_time: float) -> KernelResult:
    """Global FFT in flop/s, verified against ``np.fft.fft`` of the whole
    input (a host-side check, kept out of the program for its cost), one
    member's row block at a time: no temporary is larger than a block."""
    n1, n2 = params["n1"], params["n2"]
    # one complex buffer holds the input, its transform, then the difference
    expected = fft_input(params["seed"], n1, n2).reshape(-1)
    np.fft.fft(expected, out=expected)
    pieces, lo = [], 0  # (a member's rows, the reference's same rows), empty ones left out
    for block in result["spectrum_rows"]:
        if block.size:
            pieces.append((block.reshape(-1), expected[lo : lo + block.size]))
            lo += block.size
    atol = 1e-6 * max(1, *(np.abs(ref).max() for _, ref in pieces))
    verified, max_err = True, 0.0
    for block, ref in pieces:
        magnitude = np.abs(ref)
        err = np.abs(np.subtract(block, ref, out=ref))
        verified &= within_allclose(err, magnitude, atol)
        max_err = np.maximum(max_err, err.max())  # a NaN stays NaN
    total = fft_params(n1, n2, params["seed"], places, params["modeled_elements_per_place"],
                       params["calibration"])["total_flops"]
    return KernelResult.of("fft", result, places, sim_time, total / sim_time, "flop/s",
                           verified=verified, n1=n1, n2=n2, max_err=float(max_err))
