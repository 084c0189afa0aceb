"""Brandes' betweenness-centrality algorithm for unweighted graphs.

BFS from each source builds shortest-path counts and a level structure; a
reverse sweep accumulates dependencies.  ``sources`` restricts the outer loop,
which is exactly the unit of work the paper's BC code partitions across
places ("each place is responsible for computing the centrality measure for
all its vertices; these computations are local and independent").
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.kernels.bc.rmat import Graph


def brandes_betweenness(
    graph: Graph, sources: Optional[Sequence[int]] = None, return_work: bool = False
):
    """Betweenness centrality contributions from ``sources`` (default: all).

    For undirected graphs the full-source result is halved, matching
    ``networkx.betweenness_centrality(G, normalized=False)``.  Partial-source
    calls return raw dependency sums (divide by two after reducing over all
    sources).

    With ``return_work`` the edge-traversal count is returned as well; the
    per-source cost varies wildly on skewed graphs (a source in a tiny
    component costs almost nothing), which is the imbalance the paper
    discusses.
    """
    n = graph.n
    centrality = np.zeros(n)
    work = 0
    src_list = range(n) if sources is None else sources
    for s in src_list:
        delta, touched = single_source_dependencies(graph, int(s))
        centrality += delta
        work += touched
    if sources is None:
        centrality /= 2.0
    if return_work:
        return centrality, work
    return centrality


def single_source_dependencies(graph: Graph, s: int):
    """One BFS + dependency accumulation (the inner loop of Brandes).

    Level-synchronous over whole levels: the CSR rows of a frontier are
    gathered in one index expression, vertex-major, so the single
    ``np.add.at`` per level adds the same terms in the same order as a
    vertex-at-a-time sweep would and ``sigma``/``delta`` keep their bits.
    The reverse sweep filters the expansions the forward sweep already made.

    Returns (dependency vector, edges touched).
    """
    n = graph.n
    indptr, indices = graph.indptr, graph.indices
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n)
    delta = np.zeros(n)
    dist[s] = 0
    sigma[s] = 1.0
    frontier = np.array([s], dtype=np.int64)
    expansions = []  # per level: (owning vertex, neighbour) of every CSR slot
    work = 0
    while len(frontier):
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        ends = np.cumsum(counts)
        slots = np.arange(ends[-1]) + np.repeat(starts - (ends - counts), counts)
        owners, nbrs = np.repeat(frontier, counts), indices[slots]
        expansions.append((owners, nbrs))
        work += len(nbrs)
        fresh = dist[nbrs] == -1  # all of these land on the next level
        reached = nbrs[fresh]
        np.add.at(sigma, reached, sigma[owners[fresh]])
        frontier = np.unique(reached)
        dist[frontier] = len(expansions)
    # reverse accumulation, deepest level first
    for level in range(len(expansions) - 1, 0, -1):
        owners, nbrs = expansions[level]
        work += len(nbrs)
        back = dist[nbrs] == level - 1
        w, preds = owners[back], nbrs[back]
        np.add.at(delta, preds, (sigma[preds] / sigma[w]) * (1.0 + delta[w]))
    delta[s] = 0.0
    return delta, work
