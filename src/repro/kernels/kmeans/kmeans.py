"""K-Means: Lloyd's algorithm (paper Section 7).

Points are partitioned across places.  In parallel at each place we classify
the points by nearest centroid and compute the average positions of the
per-place points in each cluster; two All-Reduce collectives then compute the
global sums and counts, providing updated centroids for the next iteration.

One entry point, :func:`kmeans_main`, runs :func:`kmeans_body` at every
member; with ``resilient`` every iteration is a checkpoint epoch
(:func:`kmeans_restore`, :func:`kmeans_epoch`) whose blob is a place's
centroids, so a chaos kill costs one re-executed iteration and the final
centroids are bit-identical to the fault-free run.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from repro.errors import KernelError
from repro.harness.calibration import DEFAULT_CALIBRATION, Calibration
from repro.harness.results import KernelResult, checksum_bytes
from repro.runtime.broadcast import broadcast_gather
from repro.sim.rng import RngStream

#: flops per point-centroid pair in the classify step (sub, mul, add per dim)
FLOPS_PER_PAIR_PER_DIM = 3

#: points classified at a time: their distances to every centroid are one
#: ``ASSIGN_ROWS x k`` block, reused for the next points
ASSIGN_ROWS = 512


def generate_points(seed: int, place: int, n: int, dim: int) -> np.ndarray:
    """The point block owned by ``place`` (deterministic in (seed, place))."""
    rng = RngStream(seed, f"kmeans/points/{place}")
    return rng.uniform(0.0, 1.0, size=(n, dim))


def initial_centroids(seed: int, k: int, dim: int) -> np.ndarray:
    """Arbitrary initial centroids, identical at every place."""
    rng = RngStream(seed, "kmeans/centroids")
    return rng.uniform(0.0, 1.0, size=(k, dim))


def assign_and_accumulate(points: np.ndarray, centroids: np.ndarray):
    """Classify points by nearest centroid; returns (sums k x d, counts k)."""
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; the x^2 term is constant per
    # point, and the rest is formed in place in a block of the n x k product,
    # the -2 folded into the k x d operand (a power of two: the product's bits
    # stay); a point's row of the product is the same whatever block holds it
    scaled = (centroids * -2.0).T
    c_sq = np.einsum("kd,kd->k", centroids, centroids)
    n, (k, d) = len(points), centroids.shape
    labels = np.empty(n, dtype=np.intp)
    block = np.empty((min(n, ASSIGN_ROWS), k))
    for lo in range(0, n, ASSIGN_ROWS):
        hi = min(lo + ASSIGN_ROWS, n)
        cross = np.matmul(points[lo:hi], scaled, out=block[: hi - lo])
        cross += c_sq
        np.argmin(cross, axis=1, out=labels[lo:hi])
    # one weighted bincount over the (cluster, dim) cells: each cell sums its
    # points in point order from 0.0, the same adds as ``np.add.at``
    sums = np.bincount(
        (labels[:, None] * d + np.arange(d)).ravel(), weights=points.ravel(), minlength=k * d
    ).reshape(k, d)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    return sums, counts


def update_centroids(centroids: np.ndarray, sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """New centroids = cluster means; empty clusters keep their centroid."""
    out = centroids.copy()
    mask = counts > 0
    out[mask] = sums[mask] / counts[mask, None]
    return out


def kmeans_reference(points: np.ndarray, centroids: np.ndarray, iterations: int) -> np.ndarray:
    """Single-node Lloyd's, used as the correctness oracle."""
    c = centroids.copy()
    for _ in range(iterations):
        sums, counts = assign_and_accumulate(points, c)
        c = update_centroids(c, sums, counts)
    return c


#: the program's parameters and defaults (a small conformance-scale problem):
#: ``n_per_place`` points per place and ``k`` centroids are computed on;
#: ``modeled_points`` and ``modeled_k`` (None: the real sizes) are charged
PROGRAM_DEFAULTS = {
    "n_per_place": 256, "k": 8, "dim": 4, "iterations": 5, "seed": 3,
    "modeled_points": None, "modeled_k": None, "calibration": DEFAULT_CALIBRATION,
}


def kmeans_restore(ctx, committed_epoch: int, blob, p: dict, team) -> None:
    """(Re)build a member's ``(points, centroids)``: the point block by team
    rank, the centroids from ``blob`` (None: the initial ones)."""
    points = generate_points(p["seed"], team.rank(ctx.here), p["n_per_place"], p["dim"])
    centroids = initial_centroids(p["seed"], p["k"], p["dim"]) if blob is None else blob.copy()
    ctx.store[("kmeans", team)] = (points, centroids)


def kmeans_epoch(ctx, epoch: int, tag: str, p: dict, team):
    """One Lloyd iteration at a member; returns the new centroids' copy (the
    resilient checkpoint blob).  ``tag`` scopes the collectives' messages."""
    points, centroids = ctx.store[("kmeans", team)]
    sums, counts = assign_and_accumulate(points, centroids)
    n = p["n_per_place"] if p["modeled_points"] is None else p["modeled_points"]
    k = p["k"] if p["modeled_k"] is None else p["modeled_k"]
    yield ctx.compute(
        flops=n * k * p["dim"] * FLOPS_PER_PAIR_PER_DIM, flop_rate=p["calibration"].kmeans_flops
    )
    # two All-Reduce collectives compute the global averages
    global_sums = yield team.allreduce(ctx, sums, tag=tag)
    global_counts = yield team.allreduce(ctx, counts, tag=tag)
    centroids = update_centroids(centroids, global_sums, global_counts)
    ctx.store[("kmeans", team)] = (points, centroids)
    return centroids.copy()


def kmeans_body(ctx, p: dict, team):
    """A member's whole run: every iteration on its point block, then it lets
    its state go; returns its centroids at rank 0, elsewhere only their digest."""
    kmeans_restore(ctx, -1, None, p, team)
    for epoch in range(p["iterations"]):
        yield from kmeans_epoch(ctx, epoch, "", p, team)
    centroids = ctx.store.pop(("kmeans", team))[1]
    return centroids if team.rank(ctx.here) == 0 else hashlib.sha256(centroids).digest()


def kmeans_params(**p) -> dict:
    """The program's parameters, every size checked here, once."""
    sizes = [p[key] for key in ("n_per_place", "k", "dim", "iterations", "modeled_points", "modeled_k")]
    if min(size for size in sizes if size is not None) < 1:
        raise KernelError("kmeans parameters must be positive")
    return p


def kmeans_result(centroids: np.ndarray, digests: list, p: dict) -> dict:
    """The program result: the centroids, ``verified`` if every other
    member's digest is theirs."""
    digest = hashlib.sha256(centroids).digest()
    return {"checksum": checksum_bytes(np.ascontiguousarray(centroids)), "centroids": centroids,
            "k": p["k"], "verified": all(d == digest for d in digests)}


def kmeans_main(ctx, group=None, **params):
    """The program over ``group`` (default: every place), run at place 0, a
    member or not; point blocks are generated by team *rank*."""
    team = ctx.team(group or ctx.places())
    p = kmeans_params(**params)
    final = yield from broadcast_gather(ctx, team, kmeans_body, p, team)
    return kmeans_result(final[0], final[1:], p)


def kmeans_modelled(places: int, config, points_per_place: int = 40_000, k: int = 4096,
                    dim: int = 12, iterations: int = 5, seed: int = 0,
                    actual_points: Optional[int] = None, actual_k: Optional[int] = None,
                    calibration: Calibration = DEFAULT_CALIBRATION) -> dict:
    """``simulate``'s keywords: the paper's sizes, charged, while
    ``actual_points`` / ``actual_k`` (default: at most 4,096 and 64) bound
    the real math."""
    return {"n_per_place": min(points_per_place, 4096) if actual_points is None else actual_points,
            "k": min(k, 64) if actual_k is None else actual_k, "dim": dim,
            "iterations": iterations, "seed": seed, "modeled_points": points_per_place,
            "modeled_k": k, "calibration": calibration}


def kmeans_report(result: dict, params: dict, places: int, sim_time: float) -> KernelResult:
    """Weak-scaling K-Means: the paper reports run time, so efficiency is time-based."""
    return KernelResult.of("kmeans", result, places, sim_time, sim_time, "s", sim_time,
                           centroids=result["centroids"], iterations=params["iterations"])
