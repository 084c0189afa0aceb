"""Betweenness Centrality on top of GLB (Zhang et al. [43]).

The paper reports 45% relative efficiency for statically partitioned BC at
scale, attributes the loss to per-vertex cost imbalance, and notes: "Since we
collected these results, we have implemented BC on top of the GLB library to
dynamically distribute the load across all places [43].  The resulting code
has better efficiency."  This module is that follow-up: sources are GLB work
items whose *actual* BFS traversal cost is reported to the balancer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import KernelError
from repro.glb import Glb, GlbConfig, TaskBag
from repro.harness.calibration import DEFAULT_CALIBRATION, Calibration
from repro.harness.results import KernelResult
from repro.kernels.bc.brandes import single_source_dependencies
from repro.kernels.bc.rmat import Graph, rmat_graph
from repro.runtime.broadcast import PlaceGroup
from repro.runtime.runtime import ApgasRuntime
from repro.sim.rng import RngStream


class BcBag(TaskBag):
    """A pool of BFS source vertices; cost = edges actually traversed."""

    def __init__(self, graph: Graph, sources: Optional[np.ndarray], accumulate) -> None:
        self.graph = graph
        self.sources = sources if sources is not None else np.empty(0, dtype=np.int64)
        self.accumulate = accumulate
        self._last_cost = 0.0

    def process(self, max_items: int) -> int:
        take = min(max_items, len(self.sources))
        batch, self.sources = self.sources[:take], self.sources[take:]
        cost = 0
        for s in batch:
            delta, work = single_source_dependencies(self.graph, int(s))
            self.accumulate(delta)
            cost += work
        self._last_cost = float(cost)
        return int(take)

    def last_process_cost(self) -> float:
        return self._last_cost

    def is_empty(self) -> bool:
        return len(self.sources) == 0

    def split(self) -> Optional["BcBag"]:
        if len(self.sources) < 2:
            return None
        # alternate elements so heavy sources decorrelate between thief/victim
        loot, kept = self.sources[::2], self.sources[1::2]
        self.sources = kept
        return BcBag(self.graph, loot, self.accumulate)

    def merge(self, other: "BcBag") -> None:
        self.sources = np.concatenate([self.sources, other.sources])

    @property
    def serialized_nbytes(self) -> int:
        return 16 + 8 * len(self.sources)  # vertex ids only; graph is replicated


def run_bc_glb(
    rt: ApgasRuntime,
    scale: int,
    edge_factor: int = 8,
    seed: int = 0,
    glb_config: Optional[GlbConfig] = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    group: Optional[PlaceGroup] = None,
) -> KernelResult:
    """Dynamically balanced BC; the result is identical to the static
    :func:`~repro.kernels.bc.bc.bc_main`'s."""
    if scale < 2:
        raise KernelError("scale must be at least 2")
    graph = rmat_graph(scale, edge_factor, seed)
    total = np.zeros(graph.n)

    def accumulate(delta: np.ndarray) -> None:
        np.add(total, delta, out=total)

    sources = RngStream(seed, "bc/partition").permutation(graph.n)
    glb = Glb(
        rt,
        root_bag=BcBag(graph, sources, accumulate),
        make_empty_bag=lambda: BcBag(graph, None, accumulate),
        process_rate=calibration.bc_edges_per_sec,
        # one source per chunk: a single BFS is the indivisible task unit and
        # per-source costs are heavy-tailed, so finer chunks balance better
        config=glb_config or GlbConfig(chunk_items=1, prime_items=1),
        group=group,
    )
    stats = glb.run()
    edges_per_sec = stats.total_cost / rt.now if rt.now else 0.0
    return KernelResult(
        kernel="bc-glb",
        places=stats.places,
        sim_time=rt.now,
        value=edges_per_sec,
        unit="edges/s",
        per_core=edges_per_sec / stats.places,
        verified=stats.total_processed == graph.n,
        extra={
            "centrality": total / 2.0,
            "glb": stats,
            "efficiency": stats.efficiency(calibration.bc_edges_per_sec),
            "graph_n": graph.n,
            "graph_m": graph.m,
        },
    )
