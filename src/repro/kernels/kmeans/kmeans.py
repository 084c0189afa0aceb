"""K-Means: Lloyd's algorithm (paper Section 7).

Points are partitioned across places.  In parallel at each place we classify
the points by nearest centroid and compute the average positions of the
per-place points in each cluster; two All-Reduce collectives then compute the
global sums and counts, providing updated centroids for the next iteration.

One program on every backend: :func:`kmeans_main` (``build_program``) and the
simulator's :func:`build_kmeans` both run :func:`kmeans_body` at every member.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from repro.errors import KernelError
from repro.harness.calibration import DEFAULT_CALIBRATION, Calibration
from repro.harness.results import KernelResult, checksum_bytes
from repro.runtime.broadcast import PlaceGroup, broadcast_spawn
from repro.runtime.runtime import ApgasRuntime
from repro.sim.rng import RngStream

#: flops per point-centroid pair in the classify step (sub, mul, add per dim)
FLOPS_PER_PAIR_PER_DIM = 3


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
    # point, and the rest is formed in place in the n x k product
    cross = points @ centroids.T
    cross *= -2.0
    cross += np.einsum("kd,kd->k", centroids, centroids)
    labels = np.argmin(cross, axis=1)
    k, d = centroids.shape
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
    """A member's whole run: every iteration on its point block."""
    kmeans_restore(ctx, -1, None, p, team)
    for epoch in range(p["iterations"]):
        yield from kmeans_epoch(ctx, epoch, "", p, team)


def kmeans_result(centroids: np.ndarray, p: dict) -> dict:
    """The program result: the converged centroids and their checksum."""
    return {
        "checksum": checksum_bytes(np.ascontiguousarray(centroids)),
        "centroids": centroids,
        "k": p["k"],
    }


def kmeans_main(ctx, **p):
    """The portable program over every place; runs at place 0 (member 0)."""
    team = ctx.team(ctx.places())
    body = functools.partial(kmeans_body, p=p, team=team)
    yield from broadcast_spawn(ctx, PlaceGroup(team.members), body)
    return kmeans_result(ctx.store.pop(("kmeans", team))[1], p)


def build_kmeans(
    rt: ApgasRuntime,
    points_per_place: int,
    k: int = 4096,
    dim: int = 12,
    iterations: int = 5,
    seed: int = 0,
    actual_points: Optional[int] = None,
    actual_k: Optional[int] = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    resilient: bool = False,
    group: Optional[PlaceGroup] = None,
):
    """Build the K-Means program over ``group``; returns ``(main, finalize)``.

    Point blocks are generated by group *rank*, so the converged centroids
    depend only on the parameters and the group width.  Paper parameters are
    the defaults; ``actual_points`` / ``actual_k`` bound the real math at
    scale while time is charged for the modeled ``points_per_place`` x ``k``
    problem.

    With ``resilient`` every iteration is a checkpoint epoch whose blob is a
    place's centroids; a restore regenerates the point block from its seed,
    so a chaos kill costs one re-executed iteration and the final centroids
    are bit-identical to the fault-free run.
    """
    p = {
        "n_per_place": min(points_per_place, 4096) if actual_points is None else actual_points,
        "k": min(k, 64) if actual_k is None else actual_k,
        "dim": dim, "iterations": iterations, "seed": seed,
        "modeled_points": points_per_place, "modeled_k": k, "calibration": calibration,
    }
    if min(points_per_place, k, dim, iterations, p["n_per_place"], p["k"]) < 1:
        raise KernelError("kmeans parameters must be positive")
    places = list(PlaceGroup.world(rt) if group is None else group)
    if resilient and places != list(range(rt.n_places)):
        raise KernelError("resilient kmeans requires the whole-machine place group")
    team = rt.team(places)
    if resilient:
        from repro.kernels.portable.resilient import resilient_main

        main = functools.partial(resilient_main, kernel="kmeans", p=p, team=team)
    else:
        body = functools.partial(kmeans_body, p=p, team=team)
        main = functools.partial(broadcast_spawn, group=PlaceGroup(places), fn=body)

    def finalize(elapsed: Optional[float] = None) -> KernelResult:
        t = rt.now if elapsed is None else elapsed
        final = [rt.place(place).store.pop(("kmeans", team))[1] for place in places]
        centroids = final[0]
        return KernelResult(
            kernel="kmeans",
            places=len(places),
            sim_time=t,
            value=t,
            unit="s",
            per_core=t,  # the paper reports run time; efficiency is time-based
            verified=all(np.array_equal(c, centroids) for c in final),
            extra={
                "centroids": centroids,
                "iterations": iterations,
                "checksum": kmeans_result(centroids, p)["checksum"],
            },
        )

    return main, finalize


def run_kmeans(rt: ApgasRuntime, *args, **kwargs) -> KernelResult:
    """Weak-scaling distributed K-Means: build with :func:`build_kmeans`, run, finalize."""
    main, finalize = build_kmeans(rt, *args, **kwargs)
    rt.run(main)
    return finalize()
