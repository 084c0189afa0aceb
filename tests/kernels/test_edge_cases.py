"""Degenerate-size edge cases for every kernel."""


from repro.glb import GlbConfig
from repro.kernels.uts import UtsParams, run_uts, sequential_count

from tests.kernels.conftest import make_rt, run_small


def test_hpl_single_block_matrix():
    result = run_small("hpl", 1, N=8, NB=8, modeled_N=None)  # one panel, no trailing update
    assert result.verified


def test_hpl_more_blocks_than_grid():
    result = run_small("hpl", 4, N=96, NB=8, modeled_N=None)  # 12x12 blocks over a 2x2 grid
    assert result.verified


def test_fft_minimum_rows_per_place():
    # exactly one row per place per phase
    result = run_small("fft", 4, n1=4, n2=4, modeled_elements_per_place=None)
    assert result.verified


def test_fft_single_element_rows():
    result = run_small("fft", 1, n1=2, n2=2, modeled_elements_per_place=None)
    assert result.verified


def test_kmeans_single_cluster():
    result = run_small(
        "kmeans", 4, points_per_place=20, k=1, dim=2, iterations=2, actual_points=20, actual_k=1
    )
    assert result.verified
    # the single centroid is the global mean after one step
    assert result.extra["centroids"].shape == (1, 2)


def test_kmeans_more_clusters_than_points():
    result = run_small(
        "kmeans", 2, points_per_place=3, k=32, dim=2, iterations=2, actual_points=3, actual_k=32
    )
    assert result.verified  # empty clusters keep their centroids


def test_smith_waterman_single_character_query():
    result = run_small(
        "smithwaterman", 2, short_len=1, long_per_place=10, iterations=1,
        actual_short=1, actual_long=10,
    )
    assert result.verified
    assert result.extra["best_score"] in (0, 2)


def test_stream_single_element():
    result = run_small("stream", 1, elements_per_place=1, iterations=1)
    assert result.verified


def test_randomaccess_minimal_table():
    result = run_small("randomaccess", 2, table_words_per_place=1, updates_per_place=8,
                       materialize=True, model_updates_factor=1.0)
    assert result.verified


def test_uts_depth_one_tree():
    params = UtsParams(b0=4.0, depth=1, seed=19)
    expected = sequential_count(params)
    rt = make_rt(places=4)
    result = run_uts(rt, depth=1, glb_config=GlbConfig(chunk_items=4))
    assert result.extra["nodes"] == expected


def test_uts_deep_narrow_tree():
    """The paper notes its interval refinements target shallow trees; deep
    and narrow trees must still traverse correctly."""
    params = UtsParams(b0=1.3, depth=30, seed=5)
    expected = sequential_count(params)
    rt = make_rt(places=8)
    result = run_uts(
        rt, depth=30, b0=1.3, seed=5, glb_config=GlbConfig(chunk_items=16)
    )
    assert result.extra["nodes"] == expected


def test_more_places_than_work_items():
    rt = make_rt(places=32)
    result = run_uts(rt, depth=1, glb_config=GlbConfig(chunk_items=4))
    assert result.extra["nodes"] >= 1
