"""Distributed Betweenness Centrality (paper Section 7).

Since even a small graph incurs a significant amount of computation, the
graph is *replicated* in every place.  Vertices are randomly partitioned
across places; each place computes the centrality contributions for all its
vertices — these computations are local and independent — and a final
reduction combines them.  Randomizing the partition mitigates the variable
per-vertex cost, but only to a degree: the smaller the parts, the higher the
imbalance, which is the paper's explanation for BC's 45% efficiency at scale.

One program on every backend: :func:`bc_main` (``build_program``) and the
simulator's :func:`run_bc` both run :func:`bc_body` at every member.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from repro.errors import KernelError
from repro.harness.calibration import DEFAULT_CALIBRATION, Calibration
from repro.harness.results import KernelResult, checksum_bytes
from repro.kernels.bc.brandes import brandes_betweenness
from repro.kernels.bc.rmat import rmat_graph
from repro.runtime.broadcast import PlaceGroup, broadcast_spawn
from repro.runtime.runtime import ApgasRuntime
from repro.sim.rng import RngStream

#: the program's parameters and defaults (a small conformance-scale graph);
#: ``modeled_scale`` (None: ``scale``) charges compute for a larger graph
PROGRAM_DEFAULTS = {
    "scale": 7, "edge_factor": 8, "seed": 2, "modeled_scale": None,
    "calibration": DEFAULT_CALIBRATION,
}


def bc_body(ctx, p: dict, team) -> None:
    """A member's share: the sources of its slice of a random vertex
    permutation, then the allreduce of the partial centralities."""
    graph = rmat_graph(p["scale"], p["edge_factor"], p["seed"])
    # random vertex partition, identical at every place
    perm = RngStream(p["seed"], "bc/partition").permutation(graph.n)
    mine = perm[team.rank(ctx.here) :: team.size]
    local, work = brandes_betweenness(graph, sources=mine, return_work=True)
    modeled_n = graph.n if p["modeled_scale"] is None else (1 << p["modeled_scale"])
    # a BFS touches ~2m edges and there are n of them: work scales as n*m
    edge_factor = p["edge_factor"]
    work = work * ((modeled_n / graph.n) ** 2 * edge_factor / max(1, edge_factor))
    # charge the *actual* traversal work of this place's sources — the
    # per-source variance is what creates the paper's imbalance
    yield ctx.compute(seconds=work / p["calibration"].bc_edges_per_sec)
    total = yield team.allreduce(ctx, local)
    # undirected: each pair counted twice
    ctx.store[("bc", team)] = (total / 2.0, work, graph.m)


def bc_main(ctx, **p):
    """The portable program over every place; runs at place 0 (member 0)."""
    team = ctx.team(ctx.places())
    body = functools.partial(bc_body, p=p, team=team)
    yield from broadcast_spawn(ctx, PlaceGroup(team.members), body)
    centrality, _work, m = ctx.store.pop(("bc", team))
    return {
        "checksum": checksum_bytes(np.ascontiguousarray(centrality)),
        "centrality": centrality,
        "n": len(centrality),
        "m": m,
    }


def run_bc(
    rt: ApgasRuntime,
    scale: int,
    edge_factor: int = 8,
    seed: int = 0,
    modeled_scale: Optional[int] = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> KernelResult:
    """BC on a replicated R-MAT graph, vertices randomly partitioned.

    ``modeled_scale`` charges compute for a larger graph than the one
    actually traversed (the at-scale benchmarks model the paper's 2^18/2^20
    graphs); the math always runs on the real ``scale`` graph.
    """
    if scale < 2:
        raise KernelError("scale must be at least 2")
    p = {"scale": scale, "edge_factor": edge_factor, "seed": seed,
         "modeled_scale": modeled_scale, "calibration": calibration}
    group = PlaceGroup.world(rt)
    team = rt.team(group)
    body = functools.partial(bc_body, p=p, team=team)
    rt.run(functools.partial(broadcast_spawn, group=group, fn=body))
    shares = [rt.place(place).store.pop(("bc", team)) for place in group]
    centrality, _work, m = shares[0]
    edges_per_sec = sum(share[1] for share in shares) / rt.now
    return KernelResult(
        kernel="bc",
        places=len(group),
        sim_time=rt.now,
        value=edges_per_sec,
        unit="edges/s",
        per_core=edges_per_sec / len(group),
        verified=all(np.array_equal(share[0], centrality) for share in shares),
        extra={"centrality": centrality, "graph_n": len(centrality), "graph_m": m},
    )
