"""Smith-Waterman: best local alignment of a short DNA sequence against a long
one (paper Section 7).

The computation is parallelized by splitting the long sequence into
*overlapping* fragments and computing, in parallel, the best match of the
short sequence against each fragment; the best overall match is the best of
the best matches.  The overlap is sized so that any alignment with a positive
score lies entirely within some fragment, making the decomposition exact.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import KernelError
from repro.harness.calibration import DEFAULT_CALIBRATION, Calibration
from repro.harness.results import KernelResult
from repro.runtime import PlaceGroup, Team, broadcast_spawn
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

    Fragments are sliced by group *rank* and the long sequence is sized by
    the group width, so the best score depends only on the parameters and
    the width.  The paper's sizes are the defaults; the *actual* sequence
    lengths bound the real DP at scale while time is charged for the modeled
    sizes.
    """
    if min(short_len, long_per_place, iterations) < 1:
        raise KernelError("sequence lengths and iterations must be positive")
    m = min(short_len, 64) if actual_short is None else actual_short
    frag = min(long_per_place, 256) if actual_long is None else actual_long
    overlap = safe_overlap(m)
    pg = PlaceGroup.world(rt) if group is None else group
    places = list(pg)
    n_places = len(places)
    rank_of = {p: i for i, p in enumerate(places)}
    short = random_sequence(seed, "short", m)
    long_seq = random_sequence(seed, "long", frag * n_places)
    team = Team(rt, places)
    bests = {}
    # the calibrated cell rate was derived from the paper's run times with
    # cells = short * long (its modest fragment overlap is folded into the
    # rate), so the time model charges the same convention
    cells_modeled = short_len * long_per_place

    def body(ctx):
        rank = rank_of[ctx.here]
        octant = rt.topology.octant_of(ctx.here)
        crowd = len(rt.topology.places_on_octant(octant))
        rate = calibration.sw_rate(rt.config, crowd)
        lo = max(0, rank * frag - overlap)
        fragment = long_seq[lo : (rank + 1) * frag]
        best = 0
        for _ in range(iterations):
            best = sw_score(short, fragment)
            yield ctx.compute(seconds=cells_modeled / rate)
        global_best = yield team.allreduce(ctx, best, op=max)
        bests[rank] = global_best

    def main(ctx):
        yield from broadcast_spawn(ctx, pg, body)

    def finalize(elapsed: Optional[float] = None) -> KernelResult:
        t = rt.now if elapsed is None else elapsed
        global_best = bests[0]
        return KernelResult(
            kernel="smithwaterman",
            places=n_places,
            sim_time=t,
            value=t,
            unit="s",
            per_core=t,
            verified=all(b == global_best for b in bests.values()),
            extra={"best_score": global_best, "short": short, "long": long_seq},
        )

    return main, finalize


def run_smith_waterman(rt: ApgasRuntime, *args, **kwargs) -> KernelResult:
    """Weak-scaling Smith-Waterman: build with :func:`build_smith_waterman`, run, finalize."""
    main, finalize = build_smith_waterman(rt, *args, **kwargs)
    rt.run(main)
    return finalize()
