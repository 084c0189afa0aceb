"""Distributed HPL (paper Section 5.1).

A two-dimensional block-cyclic data distribution and a right-looking LU
factorization with row-partial pivoting and a recursive panel factorization.
The communication idioms follow the paper: teams for the pivot search and the
row/column broadcasts, and FINISH_ASYNC-pragma'd message exchanges for row
swaps ("a row swap is a simple message exchange").

Like the paper's implementation — and unlike the reference HPL — there is no
configurable look-ahead: phases alternate synchronously.  The panel is
gathered to and factored at the diagonal block's owner (the recursive panel
factorization), then redistributed via the column team.

What is modelled and what runs for real: every message, collective and
compute charge above is the paper's algorithm on the simulated machine, the
panel charged as the paper's recursive panel factorization.  The host
numerics behind it are the NumPy core of :mod:`repro.kernels.hpl.lu`,
run once per step at the diagonal owner; their pivots drive the swap plan
and their residual is the ``verified`` check.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import KernelError
from repro.harness.calibration import DEFAULT_CALIBRATION, Calibration
from repro.harness.results import KernelResult
from repro.kernels.hpl.grid import ProcessGrid, default_grid
from repro.kernels.hpl.lu import (
    check_sizes,
    panel_factor,
    reconstruction_residual,
    update_trailing,
    update_u_row,
)
from repro.runtime import PlaceGroup, Pragma, broadcast_spawn
from repro.runtime.runtime import ApgasRuntime
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


def owned_blocks_after(k: int, nblk: int, mod: int, mine: int) -> int:
    """Block indices in (k, nblk) owned by coordinate ``mine`` (mod P/Q): the
    first is the least index above ``k`` congruent to ``mine``."""
    return len(range(k + 1 + (mine - k - 1) % mod, nblk, mod))


def run_hpl(
    rt: ApgasRuntime,
    N: int,
    NB: int,
    grid: Optional[ProcessGrid] = None,
    seed: int = 0,
    modeled_N: Optional[int] = None,
    modeled_NB: int = 360,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> KernelResult:
    """Factor a random N x N system over every place; returns flop/s.

    The process grid is laid out over the places, rank ``r`` at place ``r``.

    ``N`` and ``NB`` must be positive, ``N`` a multiple of ``NB``; an even block-cyclic layout is not
    required — trailing counts just become uneven, as in real HPL.

    ``modeled_N`` charges time for the paper-scale problem while the real
    N x N numerics run: trailing updates scale by ``s^3`` (s = modeled_N/N,
    blocking-independent), wire volumes by ``s^2``, and the blocking-sensitive
    panel/triangular-solve phases are charged at the paper's block size
    ``modeled_NB`` (default 360), since each simulated step stands for
    ``s*NB/modeled_NB`` paper panels.
    """
    pg = PlaceGroup.world(rt)
    n_places = len(pg)
    grid = grid or default_grid(n_places)
    if grid.places != n_places:
        raise KernelError(f"grid {grid.P}x{grid.Q} does not match {n_places} places")
    P, Q = grid.P, grid.Q
    check_sizes(N, NB)
    nblk = N // NB
    s = 1.0 if modeled_N is None else modeled_N / N
    fscale, bscale = s**3, s**2
    pnb = NB if modeled_N is None else modeled_NB  # blocking-sensitive phases
    pscale = pnb * s * s
    if modeled_N is not None and nblk > 1:
        # coarse blocking sums 2*NB^3*j^2 over j<nblk, which undercounts the
        # continuous 2/3*N^3; rescale so the charged DGEMM total is exact
        # charged = 2*NB^3 * sum(j^2) ; target = (2/3) * (nblk*NB)^3
        fscale *= 2.0 * nblk**3 / ((nblk - 1) * nblk * (2 * nblk - 1))
    rng = RngStream(seed, "hpl/matrix")
    A = rng.uniform(-0.5, 0.5, size=(N, N))
    A0 = A.copy()
    all_swaps: list = []

    world = rt.team(list(pg))
    row_teams = (
        {pi: rt.team(grid.row_places(pi)) for pi in range(grid.P)}
        if grid.Q > 1
        else {}
    )
    col_teams = (
        {pj: rt.team(grid.col_places(pj)) for pj in range(grid.Q)}
        if grid.P > 1
        else {}
    )

    def dgemm_rate_for(place: int) -> float:
        return calibration.dgemm_rate(rt.config, rt.topology.crowd(place))

    def step_math(k: int) -> dict:
        """The actual numerics of step k, executed once by the diagonal owner;
        returns the step's swap plan, which the panel broadcasts carry."""
        k0 = k * NB
        swaps = panel_factor(A, k0, NB)
        update_u_row(A, k0, NB)
        update_trailing(A, k0, NB)
        all_swaps.extend(swaps)
        return swap_plan(swaps, NB, P)

    def swap_recv(ctx):
        return None  # the row data lands in local storage; no compute

    # a row's width does not depend on the step
    row_bytes = int(bscale * max(1, (N - NB) // Q) * 8)

    def body(ctx):
        here = ctx.here
        pi, pj = grid.coords_of(here)
        rate = dgemm_rate_for(here)
        rteam = row_teams.get(pi)
        cteam = col_teams.get(pj)
        mem_bw = rt.config.place_stream_bandwidth
        for k in range(nblk):
            k0 = k * NB
            rows_below = N - k0
            # step k's panel lives in process column kq, its U block row in
            # process row kp, and the diagonal block at their crossing
            kp, kq = k % P, k % Q
            diag = kp * Q + kq
            panel_share = int(bscale * rows_below * NB * 8) // P  # one place's slice

            # -- panel: gather to the diagonal owner, recursive factorization,
            #    pivot search over all rows below, redistribution of the
            #    panel and its swap plan ---------------------------------------
            plan = None
            if pj == kq:
                if here == diag:
                    plan = step_math(k)
                    yield ctx.compute(flops=pscale * NB * rows_below, flop_rate=rate)
                if cteam is not None:
                    plan = yield cteam.broadcast(ctx, plan, root=diag, nbytes=panel_share)

            # -- broadcast panel + pivots along process rows (with Q = 1 every
            #    place is in the panel's column and already holds the plan) ----
            if rteam is not None:
                plan = yield rteam.broadcast(ctx, plan, root=pi * Q + kq, nbytes=panel_share)

            # -- apply row swaps: message exchange between owning process rows --
            for partner in plan.get(pi, ()):
                if partner is None:  # local swap: memory traffic only
                    yield ctx.compute(mem_bytes=2 * row_bytes, mem_bw=mem_bw)
                else:
                    with ctx.finish(Pragma.FINISH_ASYNC) as f:
                        ctx.at_async(partner * Q + pj, swap_recv, nbytes=row_bytes)
                    yield f.wait()

            # -- U block row: triangular solves at the owning process row -------
            if pi == kp:
                u_blocks = owned_blocks_after(k, nblk, Q, pj)
                if u_blocks:
                    yield ctx.compute(flops=pscale * u_blocks * NB**2, flop_rate=rate)

            # -- broadcast U down the columns -----------------------------------
            if cteam is not None:
                u_share = int(bscale * max(1, (N - k0 - NB) // Q) * NB * 8)
                yield cteam.broadcast(ctx, None, root=kp * Q + pj, nbytes=u_share)

            # -- trailing rank-NB update (local DGEMMs) --------------------------
            my_rows = owned_blocks_after(k, nblk, P, pi)
            my_cols = owned_blocks_after(k, nblk, Q, pj)
            if my_rows and my_cols:
                yield ctx.compute(
                    flops=fscale * 2.0 * NB**3 * my_rows * my_cols, flop_rate=rate
                )
        yield world.barrier(ctx)

    def main(ctx):
        yield from broadcast_spawn(ctx, pg, body)

    rt.run(main)
    residual = reconstruction_residual(A0, A, all_swaps)
    n_eff = N if modeled_N is None else modeled_N
    flops = 2.0 / 3.0 * n_eff**3 + 2.0 * n_eff**2
    rate = flops / rt.now
    return KernelResult(
        kernel="hpl",
        places=n_places,
        sim_time=rt.now,
        value=rate,
        unit="flop/s",
        per_core=rate / n_places,
        verified=bool(residual < 1e-12),
        extra={"residual": residual, "grid": (grid.P, grid.Q), "N": N, "NB": NB},
    )
