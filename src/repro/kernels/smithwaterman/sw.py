"""Smith-Waterman: best local alignment of a short DNA sequence against a long
one (paper Section 7).

The computation is parallelized by splitting the long sequence into
*overlapping* fragments and computing, in parallel, the best match of the
short sequence against each fragment; the best overall match is the best of
the best matches.  The overlap is sized so that any alignment with a positive
score lies entirely within some fragment, making the decomposition exact.

One program on every backend: :func:`sw_main` (``build_program``) and the
simulator's :func:`build_smith_waterman` both run :func:`sw_body` at every
member.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Optional

import numpy as np

from repro.errors import KernelError
from repro.harness.calibration import DEFAULT_CALIBRATION, Calibration
from repro.harness.results import KernelResult, checksum_bytes
from repro.runtime.broadcast import PlaceGroup, broadcast_spawn
from repro.runtime.finish.pragmas import Pragma
from repro.runtime.runtime import ApgasRuntime
from repro.sim.rng import RngStream

MATCH = 2
MISMATCH = -1
GAP = 1  # linear gap penalty (subtracted)


def random_sequence(seed: int, name: str, length: int) -> np.ndarray:
    """A random DNA sequence over {0,1,2,3} (A,C,G,T)."""
    rng = RngStream(seed, f"sw/{name}")
    return rng.integers(0, 4, size=length).astype(np.int8)


def sw_score(
    a: np.ndarray, b: np.ndarray, match: int = MATCH, mismatch: int = MISMATCH, gap: int = GAP
) -> int:
    """Best local alignment score, one vector pass per row of the DP matrix.

    ``H[i,j] = max(0, H[i-1,j-1]+s(a_i,b_j), H[i-1,j]-gap, H[i,j-1]-gap)``.
    With ``E[j] = max(0, diag, vert)`` the in-row dependency unrolls to
    ``H[i,j] = max_{k<=j} (E[k] - gap*(j-k))``, a prefix maximum of
    ``E + gap*j``.  The score is symmetric in the two sequences, so rows run
    over the shorter one; everything is integer arithmetic, hence exact.
    """
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 0:
        return 0
    n = len(b)
    # one substitution row per distinct symbol of the short sequence (4 for DNA)
    symbols, row_of = np.unique(a, return_inverse=True)
    subs = np.where(np.asarray(b) == symbols[:, None], match, mismatch)
    ramp = gap * np.arange(n + 1)
    H = np.zeros(n + 1, dtype=np.int64)  # row i-1, then row i
    E = np.zeros(n + 1, dtype=np.int64)  # E[0] stays H[i,0] = 0
    vert = np.empty(n, dtype=np.int64)
    top = np.zeros(n + 1, dtype=np.int64)  # column-wise maximum over the rows so far
    for r in row_of:
        np.add(H[:-1], subs[r], out=E[1:])
        np.subtract(H[1:], gap, out=vert)
        np.maximum(E[1:], vert, out=E[1:])
        np.maximum(E, 0, out=E)
        E += ramp
        np.maximum.accumulate(E, out=H)
        H -= ramp
        np.maximum(top, H, out=top)
    return int(top.max())


def sw_score_reference(a, b, match: int = MATCH, mismatch: int = MISMATCH, gap: int = GAP) -> int:
    """Plain O(mn) loop DP — the independent oracle for tests."""
    m, n = len(a), len(b)
    H = [[0] * (n + 1) for _ in range(m + 1)]
    best = 0
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            s = match if a[i - 1] == b[j - 1] else mismatch
            H[i][j] = max(0, H[i - 1][j - 1] + s, H[i - 1][j] - gap, H[i][j - 1] - gap)
            best = max(best, H[i][j])
    return best


def safe_overlap(short_len: int, match: int = MATCH, gap: int = GAP) -> int:
    """Fragment overlap guaranteeing exactness of the decomposition.

    A positive-score alignment has at most ``m`` matches (score <= m*match)
    and every gap costs ``gap``, so its extent along the long sequence is less
    than ``m + m*match/gap``.  Any such window is contained in a fragment if
    consecutive fragments overlap by that many characters.
    """
    return short_len + (short_len * match) // max(1, gap)


def sw_params(
    seed: int, short_len: int, long_len: int, iterations: int,
    modeled_short: int, modeled_long: int, calibration: Calibration = DEFAULT_CALIBRATION,
) -> dict:
    """The body's parameters, every size checked here, once: a ``short_len``
    sequence is aligned against a ``long_len`` one cut into one fragment per
    member, and each of the ``iterations`` charges ``modeled_short *
    modeled_long`` cells (the calibrated rate folds the fragment overlap in)."""
    if min(short_len, long_len, iterations, modeled_short, modeled_long) < 1:
        raise KernelError("sequence lengths and iterations must be positive")
    return {
        "seed": seed, "short_len": short_len, "long_len": long_len, "iterations": iterations,
        "cells": modeled_short * modeled_long, "calibration": calibration,
    }


def sw_body(ctx, p: dict, team):
    """A member's whole run: score its fragment, charge every iteration, then
    All-Reduce(max) the best into ``ctx.store[("sw", team)]``."""
    rank, L = team.rank(ctx.here), p["long_len"]
    short = random_sequence(p["seed"], "short", p["short_len"])
    lo = max(0, L * rank // team.size - safe_overlap(p["short_len"]))
    fragment = random_sequence(p["seed"], "long", L)[lo : L * (rank + 1) // team.size]
    best = sw_score(short, fragment)
    topology = ctx.rt.topology
    rate = p["calibration"].sw_rate(topology.config, topology.crowd(ctx.here))
    for _ in range(p["iterations"]):
        yield ctx.compute(seconds=p["cells"] / rate)
    ctx.store[("sw", team)] = yield team.allreduce(ctx, best, op=max)


def _local_check(ctx, p: dict):
    """FINISH_LOCAL leg: hash the short sequence at home (no remote activity)."""
    short = random_sequence(p["seed"], "short", p["short_len"])
    ctx.store["sw:query_digest"] = hashlib.sha256(short).hexdigest()


def _notify(ctx, home: int):
    """FINISH_ASYNC leg: a single remote activity, acked via mailbox."""
    ctx.send(home, "sw:ack", ("ok", ctx.here))


def _probe(ctx, home: int):
    """FINISH_HERE first leg: runs remotely, spawns the return leg home."""
    ctx.at_async(home, _probe_return)


def _probe_return(ctx):
    """FINISH_HERE second leg: terminates at home (its join costs no message)."""
    ctx.store["sw:probe_returned"] = True


def sw_main(ctx, target_len: int, query_len: int, seed: int):
    """The portable program over every place; runs at place 0 (member 0).

    After the alignment it tours the remaining finish pragmas, so the
    conformance suite covers every finish protocol: LOCAL (zero messages),
    ASYNC (one remote join), HERE (a round trip whose home leg joins free).
    """
    team = ctx.team(ctx.places())
    share = -(-target_len // team.size)
    p = sw_params(seed, query_len, target_len, 1, query_len, share)
    body = functools.partial(sw_body, p=p, team=team)
    yield from broadcast_spawn(ctx, PlaceGroup(team.members), body)
    best = ctx.store.pop(("sw", team))
    far = ctx.n_places - 1
    with ctx.finish(Pragma.FINISH_LOCAL) as f:
        ctx.async_(_local_check, p)
    yield f.wait()
    with ctx.finish(Pragma.FINISH_ASYNC) as f:
        ctx.at_async(far, _notify, ctx.here)
    yield f.wait()
    yield ctx.recv("sw:ack")
    with ctx.finish(Pragma.FINISH_HERE) as f:
        ctx.at_async(far, _probe, ctx.here)
    yield f.wait()
    return {
        "checksum": checksum_bytes(str(best).encode()),
        "score": best,
        "query_digest": ctx.store.pop("sw:query_digest"),
        "probe_returned": ctx.store.pop("sw:probe_returned"),
    }


def build_smith_waterman(
    rt: ApgasRuntime,
    short_len: int = 4000,
    long_per_place: int = 40_000,
    iterations: int = 5,
    seed: int = 0,
    actual_short: Optional[int] = None,
    actual_long: Optional[int] = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    group: Optional[PlaceGroup] = None,
):
    """Build the Smith-Waterman program over ``group``; ``(main, finalize)``.

    Fragments are sliced by team *rank* and the long sequence is sized by
    the group width, so the best score depends only on the parameters and
    the width.  The paper's sizes are the defaults; the *actual* sequence
    lengths bound the real DP at scale while time is charged for the modeled
    sizes.
    """
    places = list(PlaceGroup.world(rt) if group is None else group)
    m = min(short_len, 64) if actual_short is None else actual_short
    frag = min(long_per_place, 256) if actual_long is None else actual_long
    p = sw_params(
        seed, m, frag * len(places), iterations, short_len, long_per_place, calibration
    )
    team = rt.team(places)
    body = functools.partial(sw_body, p=p, team=team)
    main = functools.partial(broadcast_spawn, group=PlaceGroup(places), fn=body)

    def finalize(elapsed: Optional[float] = None) -> KernelResult:
        t = rt.now if elapsed is None else elapsed
        bests = [rt.place(place).store.pop(("sw", team)) for place in places]
        return KernelResult(
            kernel="smithwaterman",
            places=len(places),
            sim_time=t,
            value=t,
            unit="s",
            per_core=t,
            verified=all(b == bests[0] for b in bests),
            extra={
                "best_score": bests[0],
                "short": random_sequence(seed, "short", p["short_len"]),
                "long": random_sequence(seed, "long", p["long_len"]),
            },
        )

    return main, finalize


def run_smith_waterman(rt: ApgasRuntime, *args, **kwargs) -> KernelResult:
    """Weak-scaling Smith-Waterman: build with :func:`build_smith_waterman`, run, finalize."""
    main, finalize = build_smith_waterman(rt, *args, **kwargs)
    rt.run(main)
    return finalize()
