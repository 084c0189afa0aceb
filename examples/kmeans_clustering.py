"""Distributed K-Means clustering with All-Reduce refinement.

Partitions synthetic points across 32 simulated places, runs Lloyd's
algorithm with the paper's two-All-Reduce-per-iteration structure, and
verifies that the distributed result is identical to a single-node reference.

Run:  python examples/kmeans_clustering.py
"""

import numpy as np

from repro.harness.runner import simulate
from repro.kernels.kmeans import generate_points, initial_centroids, kmeans_reference

PLACES = 32
POINTS_PER_PLACE = 500
K = 8
DIM = 3
ITERATIONS = 6
SEED = 42


def main() -> None:
    result = simulate(
        "kmeans",
        PLACES,
        points_per_place=POINTS_PER_PLACE,
        k=K,
        dim=DIM,
        iterations=ITERATIONS,
        seed=SEED,
        actual_points=POINTS_PER_PLACE,
        actual_k=K,
    )
    centroids = result.extra["centroids"]

    print(f"{PLACES} places x {POINTS_PER_PLACE} points, k={K}, dim={DIM}, "
          f"{ITERATIONS} iterations")
    print(f"simulated run time: {result.sim_time:.3f} s "
          f"(paper's full-size problem runs ~6.1 s)\n")
    print("final centroids (first 4):")
    for c in centroids[:4]:
        print("  ", np.round(c, 4))

    # verify against the single-node oracle
    all_points = np.vstack(
        [generate_points(SEED, p, POINTS_PER_PLACE, DIM) for p in range(PLACES)]
    )
    expected = kmeans_reference(all_points, initial_centroids(SEED, K, DIM), ITERATIONS)
    np.testing.assert_allclose(centroids, expected, atol=1e-9)
    print("\ndistributed result matches the single-node reference exactly.")
    print(f"all {PLACES} places agreed on the centroids: {result.verified}")


if __name__ == "__main__":
    main()
