"""The per-vertex Brandes sweep that ``brandes.single_source_dependencies``
replaced — kept verbatim as the bit-equality oracle for the whole-level one.

Every ``np.add.at`` here touches one vertex's neighbours; the production code
does one per BFS level over the same (vertex, neighbour) pairs in the same
order, so ``delta`` and ``work`` must be *equal*, not close.
"""

import numpy as np


def single_source_dependencies_per_vertex(graph, s: int):
    n = graph.n
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n)
    delta = np.zeros(n)
    dist[s] = 0
    sigma[s] = 1.0
    frontier = np.array([s], dtype=np.int64)
    levels = [frontier]
    work = 0
    while len(frontier):
        neigh_all = []
        for v in frontier:
            nbrs = graph.neighbors(v)
            work += len(nbrs)
            fresh = nbrs[dist[nbrs] == -1]
            if len(fresh):
                np.add.at(sigma, fresh, sigma[v])
                neigh_all.append(fresh)
        if neigh_all:
            nxt = np.unique(np.concatenate(neigh_all))
        else:
            nxt = np.empty(0, dtype=np.int64)
        if len(nxt):
            dist[nxt] = dist[frontier[0]] + 1
            levels.append(nxt)
        frontier = nxt
    for level in reversed(levels[1:]):
        for w in level:
            nbrs = graph.neighbors(w)
            work += len(nbrs)
            preds = nbrs[dist[nbrs] == dist[w] - 1]
            if len(preds):
                share = (sigma[preds] / sigma[w]) * (1.0 + delta[w])
                np.add.at(delta, preds, share)
    delta[s] = 0.0
    return delta, work
