"""Portable APGAS programs for four of the eight kernels (UTS has its own
module, :mod:`repro.kernels.portable.uts_program`; K-Means, BC and
Smith-Waterman are one program on both backends, beside their numeric cores).

Every program here is *backend-blind*: it uses only the picklable ``ctx``
subset (module-level worker functions, plain-data messages, ``ctx.store``)
plus ``ctx.team``, so the identical program text runs on the discrete-event
simulator and on real OS processes.
The numerical cores are imported from the corresponding simulator kernels —
the physics is shared, only the orchestration is rewritten portably.

Determinism contract (what the conformance suite asserts): for a fixed seed
and place count, the returned result — including every floating-point bit of
the checksum — is identical on every backend.  Results are combined at the
root in rank order, never in arrival order (see :func:`_gather`).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.harness.results import checksum_bytes
from repro.kernels.hpl.lu import panel_factor, reconstruction_residual, solve_unit_lower
from repro.runtime.finish.pragmas import Pragma
from repro.sim.rng import RngStream

#: nominal per-chunk compute charge for the simulator backend (the procs
#: backend ignores it: there, the real CPU time is the real cost)
_TICK = 1e-6


def _digest(*arrays) -> bytes:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr))  # hashed in place, no copy
    return h.digest()


def _rank_checksum(digests: dict) -> str:
    """Combine per-place digests in rank order into one stable checksum."""
    return checksum_bytes(*(digests[place] for place in sorted(digests)))


def spmd(ctx, worker, params: dict, pragma: Pragma = Pragma.FINISH_SPMD):
    """Run ``worker(ctx, params)`` once at every place under ``pragma``.

    The paper's dominant pattern: one remote activity per place, no stray
    subactivities outside nested finishes.  Use ``yield from spmd(...)``.
    """
    with ctx.finish(pragma) as f:
        for place in ctx.places():
            if place == ctx.here:
                ctx.async_(worker, params)
            else:
                ctx.at_async(place, worker, params)
    yield f.wait()
    return ctx.store.pop("portable:result")


def _gather(ctx, tag: str, value):
    """Collect every place's ``value`` at place 0: returns ``{place: value}``
    there (None elsewhere), independent of arrival order."""
    box = f"ga:{tag}"
    if ctx.here != 0:
        ctx.send(0, box, (ctx.here, value))
        return None
    out = {0: value}
    for _ in range(ctx.n_places - 1):
        sender, item = yield ctx.recv(box)
        out[sender] = item
    return out


# -- STREAM ---------------------------------------------------------------------------


def stream_worker(ctx, p: dict):
    rng = RngStream(p["seed"], f"portable/stream/{ctx.here}")
    n = p["n_per_place"]
    a = rng.uniform(0.0, 1.0, size=n)
    b = rng.uniform(0.0, 1.0, size=n)
    c = rng.uniform(0.0, 1.0, size=n)
    from repro.kernels.stream.stream import triad

    for _ in range(p["iterations"]):
        yield ctx.compute(seconds=_TICK)
        triad(a, b, c, p["alpha"])
        a, c = c, a  # ping-pong so every iteration changes the inputs
    digests = yield from _gather(ctx, "stream", _digest(a, b, c))
    if ctx.here == 0:
        ctx.store["portable:result"] = {
            "checksum": _rank_checksum(digests),
            "n_total": n * ctx.n_places,
            "iterations": p["iterations"],
        }


def stream_main(ctx, **params):
    return (yield from spmd(ctx, stream_worker, params))


# -- RandomAccess ---------------------------------------------------------------------


def ra_worker(ctx, p: dict):
    from repro.kernels.randomaccess.hpcc_rng import stream_slice_fast

    me, P, team = ctx.here, ctx.n_places, p["team"]
    size = 1 << p["log2_table"]
    lo, hi = size * me // P, size * (me + 1) // P
    table = np.arange(lo, hi, dtype=np.uint64)
    updates = p["updates_per_place"]
    yield ctx.compute(seconds=_TICK)
    values = stream_slice_fast(me * updates, updates)
    index = (values & np.uint64(size - 1)).astype(np.int64)
    owner = index * P // size
    # one bulk exchange: a (possibly empty) batch for every place
    batches = [(index[owner == q], values[owner == q]) for q in range(P)]
    del values, index, owner  # the batches are copies: free these across the exchange
    for idx, val in (yield team.alltoall(ctx, batches)):
        np.bitwise_xor.at(table, idx - lo, val)  # .at: duplicate indices all land
    digests = yield from _gather(ctx, "ra", _digest(table))
    if me == 0:
        ctx.store["portable:result"] = {
            "checksum": _rank_checksum(digests),
            "table_size": size,
            "updates": updates * P,
        }


def ra_main(ctx, **params):
    # the paper's pragma for RandomAccess: an irregular communication graph
    params["team"] = ctx.team(ctx.places())
    return (yield from spmd(ctx, ra_worker, params, pragma=Pragma.FINISH_DENSE))


# -- FFT (six-step with a real all-to-all transpose) ----------------------------------


def fft_worker(ctx, p: dict):
    me, P, team = ctx.here, ctx.n_places, p["team"]
    n1, n2 = p["n1"], p["n2"]
    N = n1 * n2
    rng = RngStream(p["seed"], "portable/fft")
    x = rng.uniform(-1.0, 1.0, size=N) + 1j * rng.uniform(-1.0, 1.0, size=N)
    # step 1+2: this place's rows of B = x.reshape(n1,n2).T, FFT'd + twiddled
    r0, r1 = n2 * me // P, n2 * (me + 1) // P
    B = x.reshape(n1, n2).T[r0:r1].copy()
    del x  # the full-length input: only this place's rows live on
    yield ctx.compute(seconds=_TICK)
    B = np.fft.fft(B, axis=1)
    k2 = np.arange(r0, r1)[:, None]
    j1 = np.arange(n1)[None, :]
    B *= np.exp(-2j * np.pi * (k2 * j1) / N)
    # step 3: the distributed transpose — a genuine all-to-all
    d0, d1 = n1 * me // P, n1 * (me + 1) // P
    blocks = [B[:, n1 * q // P : n1 * (q + 1) // P] for q in range(P)]
    received = yield team.alltoall(ctx, blocks)
    D = np.empty((d1 - d0, n2), dtype=np.complex128)
    for sender, block in enumerate(received):
        D[:, n2 * sender // P : n2 * (sender + 1) // P] = block.T
    # step 4: row FFTs of D; the result rows ARE the transform (column-major)
    yield ctx.compute(seconds=_TICK)
    D = np.fft.fft(D, axis=1)
    blocks = yield from _gather(ctx, "fft", (d0, D))
    if me == 0:
        full = np.vstack([blocks[q][1] for q in sorted(blocks)])
        X = full.T.reshape(-1)  # X[j2*n1 + j1] = D[j1, j2]
        ctx.store["portable:result"] = {
            "checksum": checksum_bytes(_digest(X)),
            "n": N,
            "spectrum": X,
        }


def fft_main(ctx, **params):
    # all-to-all transpose traffic: the dense-communication pragma
    params["team"] = ctx.team(ctx.places())
    return (yield from spmd(ctx, fft_worker, params, pragma=Pragma.FINISH_DENSE))


# -- HPL (block-cyclic right-looking LU) ----------------------------------------------


def _hpl_matrix(seed: int, n: int) -> np.ndarray:
    rng = RngStream(seed, "portable/hpl")
    return rng.uniform(-0.5, 0.5, size=(n, n))


def hpl_worker(ctx, p: dict):
    me, P, team = ctx.here, ctx.n_places, p["team"]
    n, nb = p["n"], p["nb"]
    A = _hpl_matrix(p["seed"], n)
    nblocks = n // nb
    owned = [bk for bk in range(nblocks) if bk % P == me]
    all_swaps = []
    for bk in range(nblocks):
        k0 = bk * nb
        owner = bk % P
        if me == owner:
            yield ctx.compute(seconds=_TICK)
            swaps = panel_factor(A, k0, nb)
            payload = (swaps, A[k0:, k0 : k0 + nb].copy())
        else:
            payload = None
        swaps, panel = yield team.broadcast(ctx, payload, root=owner)
        all_swaps.extend(swaps)
        if me != owner:
            # replay the pivot swaps on this place's columns, then install
            # the factored panel (its own columns of it were stale anyway)
            for r1, r2 in swaps:
                A[[r1, r2]] = A[[r2, r1]]
            A[k0:, k0 : k0 + nb] = panel
        L11 = A[k0 : k0 + nb, k0 : k0 + nb]
        trailing = [bj for bj in owned if bj > bk]
        if trailing:
            yield ctx.compute(seconds=_TICK)
        for bj in trailing:
            c0, c1 = bj * nb, (bj + 1) * nb
            A[k0 : k0 + nb, c0:c1] = solve_unit_lower(L11, A[k0 : k0 + nb, c0:c1])
            A[k0 + nb :, c0:c1] -= A[k0 + nb :, k0 : k0 + nb] @ A[k0 : k0 + nb, c0:c1]
    mine = {bk: A[:, bk * nb : (bk + 1) * nb] for bk in owned}
    blocks = yield from _gather(ctx, "hpl", mine)
    if me == 0:
        LU = np.empty((n, n))
        for place_blocks in blocks.values():
            for bk, cols in place_blocks.items():
                LU[:, bk * nb : (bk + 1) * nb] = cols
        residual = reconstruction_residual(_hpl_matrix(p["seed"], n), LU, all_swaps)
        ctx.store["portable:result"] = {
            "checksum": checksum_bytes(_digest(LU), repr(all_swaps).encode()),
            "residual": residual,
            "n": n,
        }


def hpl_main(ctx, **params):
    params["team"] = ctx.team(ctx.places())
    return (yield from spmd(ctx, hpl_worker, params))
