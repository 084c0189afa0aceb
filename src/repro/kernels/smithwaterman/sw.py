"""Smith-Waterman: best local alignment of a short DNA sequence against a long
one (paper Section 7).

The computation is parallelized by splitting the long sequence into
*overlapping* fragments and computing, in parallel, the best match of the
short sequence against each fragment; the best overall match is the best of
the best matches.  The overlap is sized so that any alignment with a positive
score lies entirely within some fragment, making the decomposition exact.

One entry point, :func:`sw_main`, runs :func:`sw_body` at every member.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from repro.errors import KernelError
from repro.harness.calibration import DEFAULT_CALIBRATION, Calibration
from repro.harness.results import KernelResult, checksum_bytes
from repro.runtime.broadcast import broadcast_gather
from repro.runtime.finish.pragmas import Pragma
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
    All-Reduce(max) the best, which it returns."""
    rank, L = team.rank(ctx.here), p["long_len"]
    short = random_sequence(p["seed"], "short", p["short_len"])
    lo = max(0, L * rank // team.size - safe_overlap(p["short_len"]))
    fragment = random_sequence(p["seed"], "long", L)[lo : L * (rank + 1) // team.size]
    best = sw_score(short, fragment)
    topology = ctx.rt.topology
    rate = p["calibration"].sw_rate(topology.config, topology.crowd(ctx.here))
    for _ in range(p["iterations"]):
        yield ctx.compute(seconds=p["cells"] / rate)
    return (yield team.allreduce(ctx, best, op=max))


def _local_check(ctx, p: dict, team):
    """FINISH_LOCAL leg: hash the short sequence at home (no remote activity)."""
    short = random_sequence(p["seed"], "short", p["short_len"])
    ctx.store[("sw:query_digest", team)] = hashlib.sha256(short).hexdigest()


def _notify(ctx, home: int):
    """FINISH_ASYNC leg: a single remote activity, acked via mailbox."""
    ctx.send(home, "sw:ack", ("ok", ctx.here))


def _probe(ctx, home: int, team):
    """FINISH_HERE first leg: runs remotely, spawns the return leg home."""
    ctx.at_async(home, _probe_return, team)


def _probe_return(ctx, team):
    """FINISH_HERE second leg: terminates at home (its join costs no message)."""
    ctx.store[("sw:probe_returned", team)] = True


def sw_main(ctx, group=None, *, target_len: int, query_len: int, seed: int, iterations: int = 1,
            modeled_query: Optional[int] = None, modeled_share: Optional[int] = None,
            calibration: Calibration = DEFAULT_CALIBRATION):
    """The program over ``group`` (default: every place), run at place 0, a
    member or not: a ``query_len`` sequence against a ``target_len`` one cut
    by team rank, each of the ``iterations`` charging ``modeled_query`` x
    ``modeled_share`` cells a member (default: the real sizes).  Then it
    tours the other finish pragmas at the last member, so the conformance
    suite covers every protocol: LOCAL (zero messages), ASYNC (one remote
    join), HERE (a round trip whose home leg joins free).
    """
    team = ctx.team(group or ctx.places())
    share = -(-target_len // team.size)
    p = sw_params(seed, query_len, target_len, iterations,
                  query_len if modeled_query is None else modeled_query,
                  share if modeled_share is None else modeled_share, calibration)
    bests = yield from broadcast_gather(ctx, team, sw_body, p, team)
    far = team.members[-1]
    with ctx.finish(Pragma.FINISH_LOCAL) as f:
        ctx.async_(_local_check, p, team)
    yield f.wait()
    with ctx.finish(Pragma.FINISH_ASYNC) as f:
        ctx.at_async(far, _notify, ctx.here)
    yield f.wait()
    yield ctx.recv("sw:ack")
    with ctx.finish(Pragma.FINISH_HERE) as f:
        ctx.at_async(far, _probe, ctx.here, team)
    yield f.wait()
    return {"checksum": checksum_bytes(str(bests[0]).encode()), "score": bests[0],
            "verified": all(best == bests[0] for best in bests),
            "query_digest": ctx.store.pop(("sw:query_digest", team)),
            "probe_returned": ctx.store.pop(("sw:probe_returned", team))}


def sw_modelled(places: int, config, short_len: int = 4000, long_per_place: int = 40_000,
                iterations: int = 5, seed: int = 0, actual_short: Optional[int] = None,
                actual_long: Optional[int] = None,
                calibration: Calibration = DEFAULT_CALIBRATION) -> dict:
    """``simulate``'s keywords: the paper's sizes, charged, while the
    *actual* lengths (default: at most 64 and 256 a place) bound the DP."""
    fragment = min(long_per_place, 256) if actual_long is None else actual_long
    return {
        "target_len": fragment * places,
        "query_len": min(short_len, 64) if actual_short is None else actual_short,
        "seed": seed, "iterations": iterations,
        "modeled_query": short_len, "modeled_share": long_per_place, "calibration": calibration,
    }


def sw_report(result: dict, params: dict, places: int, sim_time: float) -> KernelResult:
    """Weak-scaling Smith-Waterman: the paper reports run time."""
    seed = params["seed"]
    return KernelResult.of(
        "smithwaterman", result, places, sim_time, sim_time, "s", sim_time,
        best_score=result["score"], short=random_sequence(seed, "short", params["query_len"]),
        long=random_sequence(seed, "long", params["target_len"]),
    )
