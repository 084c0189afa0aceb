"""Distributed HPL (paper Section 5.1).

A two-dimensional block-cyclic data distribution and a right-looking LU
factorization with row-partial pivoting and a recursive panel factorization.
The communication idioms follow the paper: team broadcasts of the factored
panel along its process column and the process rows and of the U block row
down the process columns, and FINISH_ASYNC-pragma'd message exchanges for row
swaps ("a row swap is a simple message exchange").  Like the paper's
implementation — and unlike the reference HPL — there is no configurable
look-ahead: phases alternate synchronously.

One entry point, :func:`hpl_main`, runs :func:`hpl_body` at every member,
process-grid rank ``r`` at the ``r``-th member.  Every message,
collective and compute charge is the paper's algorithm on the simulated
machine; the host numerics (:mod:`repro.kernels.hpl.lu`) ride those messages.
Block column ``bj`` (all ``N`` rows) lives at its diagonal owner
``grid.owner_of_block(bj, bj)``, which draws it; the panel broadcasts carry
``(swap plan, row moves, factored panel)``, each owner updates its own
columns, and the residual of the assembled factors is the ``verified`` check.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
from typing import Any, Optional

import numpy as np

from repro.errors import KernelError
from repro.harness.calibration import DEFAULT_CALIBRATION, Calibration
from repro.harness.results import KernelResult, checksum_bytes
from repro.kernels.hpl.grid import ProcessGrid, default_grid
from repro.kernels.hpl.lu import (
    apply_panel,
    check_sizes,
    factor_panel,
    reconstruction_residual,
    row_moves,
)
from repro.runtime import Pragma
from repro.runtime.broadcast import broadcast_gather
from repro.sim.rng import RngStream


def swap_plan(swaps: list, nb: int, P: int) -> dict:
    """Each process row's part in one step's row swaps, in swap order.

    ``{process row: [partner process row, or None for a local swap, ...]}``:
    a swap between rows ``r1`` and ``r2`` (owned by process rows
    ``(r // nb) % P``) is a local memory swap at their common owner, or one
    message exchange that both owners take part in.  Process rows with no
    part in any swap are absent.
    """
    plan: dict = {}
    for r1, r2 in swaps:
        pr1, pr2 = (r1 // nb) % P, (r2 // nb) % P
        if pr1 == pr2:
            plan.setdefault(pr1, []).append(None)
        else:
            plan.setdefault(pr1, []).append(pr2)
            plan.setdefault(pr2, []).append(pr1)
    return plan


def matrix_columns(seed: int, N: int, c0: int, c1: int) -> np.ndarray:
    """Columns ``c0`` up to ``c1`` of the run's N x N matrix, an ``(N, c1 - c0)``
    array in Fortran order (``c0=0, c1=N`` is the whole matrix).  The matrix is
    one stream keyed by ``seed``, drawn column by column as HPL stores it, and
    a caller jumps straight to its first column: an owner draws only its own."""
    rng = RngStream(seed, "hpl/matrix").skip(N * c0)
    return rng.uniform(-0.5, 0.5, size=(c1 - c0, N)).T


def owned_blocks_after(k: int, nblk: int, mod: int, mine: int) -> int:
    """Block indices in (k, nblk) owned by coordinate ``mine`` (mod P/Q): the
    first is the least index above ``k`` congruent to ``mine``."""
    return len(range(k + 1 + (mine - k - 1) % mod, nblk, mod))


def hpl_params(N: int, NB: int, seed: int, grid: ProcessGrid, modeled_N: Optional[int] = None,
               modeled_NB: int = 360, calibration: Calibration = DEFAULT_CALIBRATION) -> dict:
    """The body's parameters: the real N x N problem on ``grid``, and the
    compute and wire scales of the modelled one (see :func:`hpl_main`)."""
    check_sizes(N, NB)
    nblk = N // NB
    s = 1.0 if modeled_N is None else modeled_N / N
    fscale = s**3
    if modeled_N is not None and nblk > 1:
        # coarse blocking sums 2*NB^3*j^2 over j<nblk, which undercounts the
        # continuous 2/3*N^3; rescale so the charged DGEMM total is exact
        # charged = 2*NB^3 * sum(j^2) ; target = (2/3) * (nblk*NB)^3
        fscale *= 2.0 * nblk**3 / ((nblk - 1) * nblk * (2 * nblk - 1))
    pnb = NB if modeled_N is None else modeled_NB  # blocking-sensitive phases
    return {
        "N": N, "NB": NB, "seed": seed, "grid": grid,
        "fscale": fscale, "bscale": s**2, "pscale": pnb * s * s, "calibration": calibration,
    }


def swap_recv(ctx):
    return None  # the row data lands in local storage; no compute


def hpl_body(ctx, p: dict, world, row_teams: dict, col_teams: dict):
    """A place's whole run: draw its block columns, then every step of the
    factorization; returns ``(blocks, columns, {step: swaps})`` (no blocks
    at most places of a big grid)."""
    N, NB, grid = p["N"], p["NB"], p["grid"]
    P, Q = grid.P, grid.Q
    bscale, pscale, fscale = p["bscale"], p["pscale"], p["fscale"]
    nblk = N // NB
    at = world.members  # grid rank -> place
    rank = world.rank(ctx.here)
    pi, pj = grid.coords_of(rank)
    topology = ctx.rt.topology
    rate = p["calibration"].dgemm_rate(topology.config, topology.crowd(ctx.here))
    mem_bw = topology.config.place_stream_bandwidth
    rteam, cteam = row_teams.get(pi), col_teams.get(pj)
    # a row's width does not depend on the step
    row_bytes = int(bscale * max(1, (N - NB) // Q) * 8)

    # the block columns whose diagonal block is here, and their steps' swaps
    blocks = [bj for bj in range(pi, nblk, P) if bj % Q == pj]
    local, steps = np.empty((N, NB * len(blocks))), {}
    for j, bj in enumerate(blocks):
        local[:, j * NB : (j + 1) * NB] = matrix_columns(p["seed"], N, bj * NB, (bj + 1) * NB)

    for k in range(nblk):
        k0 = k * NB
        rows_below = N - k0
        # step k's panel lives in process column kq, its U block row in
        # process row kp, and the diagonal block at their crossing
        kp, kq = k % P, k % Q
        diag = kp * Q + kq
        panel_share = int(bscale * rows_below * NB * 8) // P  # one place's slice

        # -- panel: recursive factorization at the diagonal owner, then the
        #    panel, its swap plan and row moves down its process column -------
        step = None
        if pj == kq:
            if rank == diag:  # factor a copy of the panel; only here are its swaps kept
                j = NB * blocks.index(k)
                panel = np.array(local[k0:, j : j + NB], order="F")
                swaps = steps[k] = factor_panel(panel, k0)
                step = swap_plan(swaps, NB, P), row_moves(swaps), panel
                yield ctx.compute(flops=pscale * NB * rows_below, flop_rate=rate)
            if cteam is not None:
                step = yield cteam.broadcast(ctx, step, root=at[diag], nbytes=panel_share)

        # -- broadcast them along process rows (with Q = 1 every place is in
        #    the panel's column and already holds them) -----------------------
        if rteam is not None:
            step = yield rteam.broadcast(ctx, step, root=at[pi * Q + kq], nbytes=panel_share)
        plan, moves, panel = step

        # -- apply row swaps: message exchange between owning process rows --
        for partner in plan.get(pi, ()):
            if partner is None:  # local swap: memory traffic only
                yield ctx.compute(mem_bytes=2 * row_bytes, mem_bw=mem_bw)
            else:
                with ctx.finish(Pragma.FINISH_ASYNC) as f:
                    ctx.at_async(at[partner * Q + pj], swap_recv, nbytes=row_bytes)
                yield f.wait()

        # -- U block row: triangular solves at the owning process row -------
        if pi == kp:
            u_blocks = owned_blocks_after(k, nblk, Q, pj)
            if u_blocks:
                yield ctx.compute(flops=pscale * u_blocks * NB**2, flop_rate=rate)

        # -- broadcast U down the columns -----------------------------------
        if cteam is not None:
            u_share = int(bscale * max(1, (N - k0 - NB) // Q) * NB * 8)
            yield cteam.broadcast(ctx, None, root=at[kp * Q + pj], nbytes=u_share)

        # -- trailing rank-NB update (local DGEMMs) --------------------------
        if blocks:
            jk = NB * blocks.index(k) if k in blocks else None
            apply_panel(local, k0, moves, panel, jk, NB * bisect.bisect_right(blocks, k))
        my_rows = owned_blocks_after(k, nblk, P, pi)
        my_cols = owned_blocks_after(k, nblk, Q, pj)
        if my_rows and my_cols:
            yield ctx.compute(
                flops=fscale * 2.0 * NB**3 * my_rows * my_cols, flop_rate=rate
            )
    yield world.barrier(ctx)
    return blocks, local, steps


def check_factors(p: dict, stores: list) -> tuple:
    """``(residual, checksum)`` of the factors assembled from the members'
    returns, emptying ``stores`` so each is let go once copied; the original
    is drawn again for the residual rather than held through the run."""
    N, NB = p["N"], p["NB"]
    LU = np.empty((N, N))
    steps: dict = {}
    while stores:
        blocks, local, mine = stores.pop()
        for j, bj in enumerate(blocks):
            LU[:, bj * NB : (bj + 1) * NB] = local[:, j * NB : (j + 1) * NB]
        steps.update(mine)
    del local  # the last store's columns are not held through the check
    swaps = [swap for k in sorted(steps) for swap in steps[k]]
    residual = reconstruction_residual(matrix_columns(p["seed"], N, 0, N), LU, swaps)
    return residual, checksum_bytes(hashlib.sha256(LU).digest(), repr(swaps).encode())


def hpl_main(ctx, group=None, *, n: int, nb: int, seed: int,
             grid: Optional[ProcessGrid] = None, modeled_n: Optional[int] = None,
             modeled_nb: int = 360, calibration: Calibration = DEFAULT_CALIBRATION):
    """Factor a random n x n system (``n`` a multiple of ``nb``) over
    ``group`` (default: every place), grid rank ``r`` at its ``r``-th member
    (``grid``: by default :func:`default_grid` of the width); runs at place
    0, a member or not, and collects the members' block columns.  The result
    is ``verified`` when the residual of the factors is below 1e-12.

    ``modeled_n`` charges time for the paper-scale problem while the real
    numerics run: trailing updates scale by ``s^3`` (s = modeled_n/n), wire
    volumes by ``s^2``, and the blocking-sensitive panel and triangular-solve
    phases are charged at the paper's block size ``modeled_nb``.
    """
    members = list(group or ctx.places())
    grid = grid or default_grid(len(members))
    if grid.places != len(members):
        raise KernelError(f"grid {grid.P}x{grid.Q} does not match {len(members)} places")
    p = hpl_params(n, nb, seed, grid, modeled_n, modeled_nb, calibration)
    world, team = ctx.team(members), ctx.team
    rows = ({pi: team([members[r] for r in grid.row_places(pi)]) for pi in range(grid.P)}
            if grid.Q > 1 else {})
    cols = ({pj: team([members[r] for r in grid.col_places(pj)]) for pj in range(grid.Q)}
            if grid.P > 1 else {})
    body = functools.partial(hpl_body, p=p, world=world, row_teams=rows, col_teams=cols)
    stores = yield from broadcast_gather(ctx, world, body)
    residual, checksum = check_factors(p, stores)
    return {"checksum": checksum, "residual": residual, "n": n,
            "verified": bool(residual < 1e-12), "grid": (grid.P, grid.Q)}


#: ``modeled_N`` not given: :func:`hpl_modelled` sizes it as the paper did
_PAPER_SIZING = object()


def hpl_modelled(places: int, config, N: Optional[int] = None, NB: int = 16,
                 grid: Optional[ProcessGrid] = None, seed: int = 0,
                 modeled_N: Any = _PAPER_SIZING, modeled_NB: int = 360,
                 calibration: Calibration = DEFAULT_CALIBRATION) -> dict:
    """``simulate``'s keywords: ``N`` defaults to ``max(128, 128 sqrt(P))``,
    ``modeled_N`` (None: the real size) to a matrix filling ~55% of the
    hosts' memory, the paper's sizing."""
    if modeled_N is _PAPER_SIZING:
        hosts = -(-places // config.cores_per_octant)
        modeled_N = int((0.55 * config.octant_memory_bytes * hosts / 8) ** 0.5)
    return {"n": max(128, 16 * 8 * int(places**0.5)) if N is None else N, "nb": NB,
            "seed": seed, "grid": grid, "modeled_n": modeled_N, "modeled_nb": modeled_NB,
            "calibration": calibration}


def hpl_report(result: dict, params: dict, places: int, sim_time: float) -> KernelResult:
    """Global HPL in flop/s of the (modelled) problem."""
    n = params["n"] if params["modeled_n"] is None else params["modeled_n"]
    rate = (2.0 / 3.0 * n**3 + 2.0 * n**2) / sim_time
    return KernelResult.of("hpl", result, places, sim_time, rate, "flop/s",
                           residual=result["residual"], grid=result["grid"],
                           N=params["n"], NB=params["nb"])
