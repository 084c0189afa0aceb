"""Distributed Betweenness Centrality (paper Section 7).

Since even a small graph incurs a significant amount of computation, the
graph is *replicated* in every place.  Vertices are randomly partitioned
across places; each place computes the centrality contributions for all its
vertices — these computations are local and independent — and a final
reduction combines them.  Randomizing the partition mitigates the variable
per-vertex cost, but only to a degree: the smaller the parts, the higher the
imbalance, which is the paper's explanation for BC's 45% efficiency at scale.

One entry point, :func:`bc_main`, runs :func:`bc_body` at every member.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from repro.errors import KernelError
from repro.harness.calibration import DEFAULT_CALIBRATION, Calibration
from repro.harness.results import KernelResult, checksum_bytes
from repro.kernels.bc.brandes import brandes_betweenness
from repro.kernels.bc.rmat import rmat_graph
from repro.runtime.broadcast import broadcast_gather
from repro.sim.rng import RngStream

#: the program's parameters and defaults (a small conformance-scale graph);
#: ``modeled_scale`` (None: ``scale``) charges compute for a larger graph
PROGRAM_DEFAULTS = {
    "scale": 7, "edge_factor": 8, "seed": 2, "modeled_scale": None,
    "calibration": DEFAULT_CALIBRATION,
}


def bc_body(ctx, p: dict, team):
    """A member's share: the sources of its slice of a random vertex
    permutation, then the allreduce of the partial centralities; returns
    ``(centrality, work, m)``, the centrality only at rank 0, elsewhere its
    digest."""
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
    centrality = total / 2.0
    if team.rank(ctx.here) > 0:
        centrality = hashlib.sha256(centrality).digest()
    return centrality, work, graph.m


def bc_main(ctx, group=None, **p):
    """BC on a replicated R-MAT graph, vertices randomly partitioned over
    ``group`` (default: every place), run at place 0, a member or not;
    ``modeled_scale`` charges compute for a larger graph than the real one."""
    if p["scale"] < 2:
        raise KernelError("scale must be at least 2")
    team = ctx.team(group or ctx.places())
    shares = yield from broadcast_gather(ctx, team, bc_body, p, team)
    centrality, _work, m = shares[0]
    digest = hashlib.sha256(centrality).digest()
    return {"checksum": checksum_bytes(np.ascontiguousarray(centrality)),
            "centrality": centrality, "n": len(centrality), "m": m,
            "work": sum(share[1] for share in shares),
            "verified": all(share[0] == digest for share in shares[1:])}


def bc_modelled(places: int, config, scale: int = 10, edge_factor: int = 8, seed: int = 0,
                modeled_scale: Optional[int] = 18, calibration: Calibration = DEFAULT_CALIBRATION) -> dict:
    """``simulate``'s keywords: a 2^10-vertex graph charged as the paper's
    2^18 by default."""
    return {"scale": scale, "edge_factor": edge_factor, "seed": seed,
            "modeled_scale": modeled_scale, "calibration": calibration}


def bc_report(result: dict, params: dict, places: int, sim_time: float) -> KernelResult:
    """BC in traversed edges per second."""
    return KernelResult.of("bc", result, places, sim_time, result["work"] / sim_time,
                           "edges/s", centrality=result["centrality"],
                           graph_n=result["n"], graph_m=result["m"])
