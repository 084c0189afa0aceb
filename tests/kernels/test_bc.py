"""Tests for R-MAT, Brandes, and distributed BC."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.kernels.bc import brandes_betweenness, rmat_graph, single_source_dependencies
from repro.kernels.bc.rmat import graph_from_edges

from tests.kernels.brandes_oracle import single_source_dependencies_per_vertex
from tests.kernels.conftest import run_small


# -- R-MAT -----------------------------------------------------------------------


def test_rmat_basic_shape():
    g = rmat_graph(scale=8, edge_factor=8, seed=1)
    assert g.n == 256
    assert 0 < g.m <= 256 * 8
    assert len(g.indptr) == g.n + 1
    assert g.indptr[-1] == len(g.indices) == 2 * g.m


def test_rmat_no_self_loops_and_symmetric():
    g = rmat_graph(scale=6, edge_factor=8, seed=2)
    for v in range(g.n):
        nbrs = g.neighbors(v)
        assert v not in nbrs
        assert len(set(nbrs.tolist())) == len(nbrs)  # deduplicated
        for w in nbrs:
            assert v in g.neighbors(int(w))  # symmetric


def test_rmat_deterministic_per_seed():
    a = rmat_graph(scale=6, seed=5)
    b = rmat_graph(scale=6, seed=5)
    c = rmat_graph(scale=6, seed=6)
    np.testing.assert_array_equal(a.indices, b.indices)
    assert not np.array_equal(a.indices, c.indices) or a.m != c.m


def test_rmat_skewed_degrees():
    """R-MAT's point: a heavy-tailed degree distribution."""
    g = rmat_graph(scale=10, edge_factor=8, seed=3)
    degrees = np.diff(g.indptr)
    assert degrees.max() > 4 * degrees.mean()


def test_rmat_invalid_params():
    with pytest.raises(KernelError):
        rmat_graph(scale=0)
    with pytest.raises(KernelError):
        rmat_graph(scale=5, a=0.9, b=0.2, c=0.2)


# -- Brandes ---------------------------------------------------------------------


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    for v in range(g.n):
        for w in g.neighbors(v):
            G.add_edge(v, int(w))
    return G


def test_brandes_path_graph():
    # path 0-1-2-3: bc(1)=bc(2)=2, endpoints 0 (networkx convention)
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    bc = brandes_betweenness(g)
    np.testing.assert_allclose(bc, [0.0, 2.0, 2.0, 0.0])


def test_brandes_star_graph():
    g = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    bc = brandes_betweenness(g)
    np.testing.assert_allclose(bc, [6.0, 0, 0, 0, 0])


def test_brandes_matches_networkx_on_rmat():
    g = rmat_graph(scale=6, edge_factor=4, seed=7)
    ours = brandes_betweenness(g)
    theirs = nx.betweenness_centrality(to_nx(g), normalized=False)
    np.testing.assert_allclose(ours, [theirs[v] for v in range(g.n)], atol=1e-9)


def test_brandes_disconnected_graph():
    g = graph_from_edges(6, [(0, 1), (1, 2), (3, 4)])
    ours = brandes_betweenness(g)
    theirs = nx.betweenness_centrality(to_nx(g), normalized=False)
    np.testing.assert_allclose(ours, [theirs[v] for v in range(6)], atol=1e-9)


def test_partial_sources_sum_to_full_result():
    g = rmat_graph(scale=5, edge_factor=4, seed=9)
    full = brandes_betweenness(g)
    part_a = brandes_betweenness(g, sources=range(0, g.n, 2))
    part_b = brandes_betweenness(g, sources=range(1, g.n, 2))
    np.testing.assert_allclose((part_a + part_b) / 2.0, full, atol=1e-9)


@given(st.integers(0, 1000))
@settings(max_examples=10, deadline=None)
def test_brandes_matches_networkx_random_graphs(seed):
    rng = np.random.default_rng(seed)
    n = 30
    edges = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(60, 2)) if a != b]
    if not edges:
        return
    g = graph_from_edges(n, edges)
    ours = brandes_betweenness(g)
    theirs = nx.betweenness_centrality(to_nx(g), normalized=False)
    np.testing.assert_allclose(ours, [theirs[v] for v in range(n)], atol=1e-8)


def _assert_bit_equal_to_per_vertex_sweep(g, sources):
    for s in sources:
        delta, work = single_source_dependencies(g, int(s))
        want_delta, want_work = single_source_dependencies_per_vertex(g, int(s))
        # array_equal, not allclose: one np.add.at per level adds the same
        # terms in the same order as one per vertex
        assert np.array_equal(delta, want_delta), f"delta differs at source {s}"
        assert work == want_work and type(work) is int, f"work differs at source {s}"


@pytest.mark.parametrize("scale", [4, 5, 6, 7, 8])
def test_whole_level_sweep_is_bit_equal_on_rmat(scale):
    g = rmat_graph(scale=scale, seed=scale)
    step = max(1, g.n // 64)  # every source up to scale 6, a stride above
    _assert_bit_equal_to_per_vertex_sweep(g, range(0, g.n, step))


def test_whole_level_sweep_is_bit_equal_on_disconnected_graph_and_isolated_source():
    # two components, one isolated vertex (5) and a vertex with no row at the end (7)
    g = graph_from_edges(8, [(0, 1), (1, 2), (0, 2), (2, 6), (3, 4)])
    _assert_bit_equal_to_per_vertex_sweep(g, range(g.n))
    delta, work = single_source_dependencies(g, 5)
    assert not delta.any() and work == 0
    _assert_bit_equal_to_per_vertex_sweep(graph_from_edges(3, []), range(3))


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_whole_level_sweep_is_bit_equal_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    edges = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))]
    _assert_bit_equal_to_per_vertex_sweep(graph_from_edges(n, edges), range(n))


# -- distributed BC -----------------------------------------------------------------


def test_distributed_matches_single_node():
    result = run_small("bc", 8, scale=6, edge_factor=4, seed=11, modeled_scale=None)
    assert result.verified
    g = rmat_graph(scale=6, edge_factor=4, seed=11)
    np.testing.assert_allclose(result.extra["centrality"], brandes_betweenness(g), atol=1e-9)


def test_distributed_bc_single_place():
    result = run_small("bc", 1, scale=5, edge_factor=4, seed=1, modeled_scale=None)
    assert result.verified


def test_imbalance_grows_with_places():
    """Paper: the smaller the parts, the higher the imbalance (45% efficiency
    at scale before GLB)."""

    def per_core(places):
        return run_small("bc", places, scale=8, edge_factor=8, seed=2, modeled_scale=None).per_core

    few = per_core(2)
    many = per_core(32)
    assert many < few  # per-core rate degrades as parts shrink


def test_invalid_scale_rejected():
    with pytest.raises(KernelError):
        run_small("bc", 8, scale=1, modeled_scale=None)
