"""Betweenness Centrality on R-MAT graphs (Brandes' algorithm)."""

from repro.kernels.bc.rmat import Graph, rmat_graph
from repro.kernels.bc.brandes import brandes_betweenness, single_source_dependencies
from repro.kernels.bc.bc import bc_main
from repro.kernels.bc.bc_glb import BcBag, run_bc_glb

__all__ = [
    "BcBag",
    "Graph",
    "rmat_graph",
    "brandes_betweenness",
    "single_source_dependencies",
    "bc_main",
    "run_bc_glb",
]
