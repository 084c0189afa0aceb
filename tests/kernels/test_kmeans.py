"""Tests for distributed K-Means."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernels.kmeans import (
    assign_and_accumulate,
    generate_points,
    initial_centroids,
    kmeans_reference,
)
from repro.kernels.kmeans.kmeans import update_centroids

from tests.kernels.conftest import run_small


def test_assign_and_accumulate_counts_points():
    points = np.array([[0.0, 0.0], [1.0, 1.0], [0.1, 0.0]])
    centroids = np.array([[0.0, 0.0], [1.0, 1.0]])
    sums, counts = assign_and_accumulate(points, centroids)
    np.testing.assert_array_equal(counts, [2, 1])
    np.testing.assert_allclose(sums[0], [0.1, 0.0])
    np.testing.assert_allclose(sums[1], [1.0, 1.0])


def _accumulate_case(shape, seed):
    """(points, centroids, indices of clusters no point can pick)."""
    if shape == "base":
        points, centroids = generate_points(seed, 0, 500, 7), initial_centroids(seed, 9, 7)
        centroids[4] = 50.0  # far from every point: an empty cluster
        return points, centroids, [4]
    if shape == "d=1":
        return generate_points(seed, 0, 300, 1), initial_centroids(seed, 6, 1), []
    if shape == "k>n":
        return generate_points(seed, 0, 5, 3), initial_centroids(seed, 17, 3), []
    if shape == "benchmark":  # sim_math_6's K-Means block: 4096 x 12 points, k = 64
        return generate_points(seed, 0, 4096, 12), initial_centroids(seed, 64, 12), []
    if shape == "many-empty":
        points, centroids = generate_points(seed, 0, 400, 4), initial_centroids(seed, 12, 4)
        centroids[1::2] = 50.0 + np.arange(6)[:, None]
        return points, centroids, list(range(1, 12, 2))
    points = generate_points(seed, 0, 900, 10)[::3, 1:8]  # rows and columns strided
    assert not points.flags.c_contiguous
    return points, initial_centroids(seed, 9, 7), []


def test_assign_and_accumulate_is_bit_equal_to_the_textbook_formula():
    """The in-place distance matrix picks the same labels, and the weighted
    ``bincount`` adds the same terms in the same order, as the out-of-place
    ``c_sq - 2 x.c`` form with a sequential ``np.add.at``: sums and counts
    are equal, not close, also for one dimension, more clusters than points,
    many empty clusters and a non-contiguous slice of points."""
    for shape in ("base", "d=1", "k>n", "many-empty", "strided"):
        for seed in range(5):
            points, centroids, empty = _accumulate_case(shape, seed)
            k = len(centroids)
            cross = points @ centroids.T
            c_sq = np.einsum("kd,kd->k", centroids, centroids)
            labels = np.argmin(c_sq[None, :] - 2.0 * cross, axis=1)
            want_sums = np.zeros_like(centroids)
            np.add.at(want_sums, labels, points)
            want_counts = np.bincount(labels, minlength=k).astype(np.float64)
            before = (points.copy(), centroids.copy())
            sums, counts = assign_and_accumulate(points, centroids)
            assert np.array_equal(sums, want_sums) and np.array_equal(counts, want_counts)
            assert not counts[empty].any() and not sums[empty].any()
            assert (counts == 0).sum() >= k - len(points)
            assert np.array_equal(points, before[0]) and np.array_equal(centroids, before[1])


def _assign_and_accumulate_scaled_after(points, centroids):
    """``assign_and_accumulate`` as it was: the ``-2`` applied to the ``n x k``
    product after it is formed, not folded into the centroids."""
    cross = points @ centroids.T
    cross *= -2.0
    cross += np.einsum("kd,kd->k", centroids, centroids)
    labels = np.argmin(cross, axis=1)
    k, d = centroids.shape
    sums = np.bincount(
        (labels[:, None] * d + np.arange(d)).ravel(), weights=points.ravel(), minlength=k * d
    ).reshape(k, d)
    return sums, np.bincount(labels, minlength=k).astype(np.float64)


@pytest.mark.parametrize("shape", ["base", "d=1", "k>n", "many-empty", "strided", "benchmark"])
def test_folded_minus_two_keeps_the_bits(shape):
    """Scaling the ``k x d`` operand by -2 scales every product and partial sum
    by a power of two, which rounds nothing: sums and counts equal the
    scaled-after form's, also at the benchmark's 4096 x 12 points, k = 64."""
    for seed in range(4):
        points, centroids, _ = _accumulate_case(shape, seed)
        sums, counts = assign_and_accumulate(points, centroids)
        want_sums, want_counts = _assign_and_accumulate_scaled_after(points, centroids)
        assert np.array_equal(sums, want_sums) and np.array_equal(counts, want_counts)


def test_empty_cluster_keeps_centroid():
    centroids = np.array([[0.0, 0.0], [5.0, 5.0]])
    sums = np.array([[2.0, 2.0], [0.0, 0.0]])
    counts = np.array([2.0, 0.0])
    out = update_centroids(centroids, sums, counts)
    np.testing.assert_allclose(out[0], [1.0, 1.0])
    np.testing.assert_allclose(out[1], [5.0, 5.0])  # unchanged


def test_reference_converges_on_separated_clusters():
    rng = np.random.default_rng(0)
    blob_a = rng.normal(0.0, 0.05, size=(100, 2))
    blob_b = rng.normal(5.0, 0.05, size=(100, 2))
    points = np.vstack([blob_a, blob_b])
    start = np.array([[0.5, 0.5], [4.0, 4.0]])
    final = kmeans_reference(points, start, iterations=10)
    np.testing.assert_allclose(sorted(final[:, 0]), [0.0, 5.0], atol=0.05)


def test_distributed_matches_reference_exactly():
    """The distributed algorithm with All-Reduce must be bitwise-equivalent in
    cluster assignment to single-node Lloyd's on the concatenated points."""
    places, n, k, dim, iters, seed = 4, 50, 8, 3, 4, 7
    result = run_small(
        "kmeans", places, points_per_place=n, k=k, dim=dim, iterations=iters, seed=seed,
        actual_points=n, actual_k=k,
    )
    assert result.verified
    all_points = np.vstack([generate_points(seed, p, n, dim) for p in range(places)])
    expected = kmeans_reference(all_points, initial_centroids(seed, k, dim), iters)
    np.testing.assert_allclose(result.extra["centroids"], expected, atol=1e-9)


def test_all_places_agree_on_centroids():
    result = run_small(
        "kmeans", 8, points_per_place=40, k=4, dim=2, iterations=3, actual_points=40, actual_k=4
    )
    assert result.verified


def test_weak_scaling_run_time_nearly_flat():
    """Paper: 6.13 s at 1 place -> 6.27 s at 47,040 (>= 97% efficiency)."""

    def run_at(places):
        return run_small("kmeans", places, points_per_place=40_000, k=512, dim=12, iterations=3).value

    t1 = run_at(1)
    t64 = run_at(64)
    assert t64 / t1 < 1.12  # allreduce overhead stays small


def test_invalid_parameters_rejected():
    with pytest.raises(KernelError):
        run_small("kmeans", 8, points_per_place=0)
