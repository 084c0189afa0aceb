"""K-Means clustering (Lloyd's algorithm) with All-Reduce refinement."""

from repro.kernels.kmeans.kmeans import (
    assign_and_accumulate,
    generate_points,
    initial_centroids,
    kmeans_main,
    kmeans_reference,
)

__all__ = [
    "assign_and_accumulate",
    "generate_points",
    "initial_centroids",
    "kmeans_main",
    "kmeans_reference",
]
