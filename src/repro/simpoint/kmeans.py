"""K-means clustering with random projection, as used by SimPoint.

SimPoint reduces each basic-block vector to ~15 dimensions by random
projection (clustering quality is preserved while distance computations
get cheap), seeds k-means with the k-means++ heuristic, runs Lloyd
iterations to convergence, and can score alternative k values with the
Bayesian Information Criterion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: SimPoint's default projected dimensionality.
DEFAULT_PROJECTED_DIMS = 15

#: Lloyd iterations per restart, at most (most runs converge sooner).
MAX_ITERATIONS = 100

#: Seedings tried; the clustering with the lowest inertia wins.
RESTARTS = 3


@dataclass
class KMeansResult:
    """One clustering of the interval vectors."""

    assignments: np.ndarray     # interval -> cluster id
    centroids: np.ndarray       # cluster id -> projected centroid
    inertia: float              # sum of squared distances to centroids
    k: int


def random_projection(vectors: np.ndarray, dims: int = DEFAULT_PROJECTED_DIMS,
                      seed: int = 0) -> np.ndarray:
    """Project row vectors to `dims` dimensions with a Gaussian matrix."""
    rng = np.random.default_rng(seed)
    if vectors.shape[1] <= dims:
        return vectors.astype(np.float64)
    matrix = rng.standard_normal((vectors.shape[1], dims))
    matrix /= np.sqrt(dims)
    return vectors @ matrix


def _kmeans_plus_plus(points: np.ndarray, k: int,
                      rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D^2 sampling."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(0, n))
    centroids[0] = points[first]
    distances = np.sum((points - centroids[0]) ** 2, axis=1)
    for index in range(1, k):
        total = distances.sum()
        if total <= 0:
            centroids[index:] = points[int(rng.integers(0, n))]
            break
        probabilities = distances / total
        choice = int(rng.choice(n, p=probabilities))
        centroids[index] = points[choice]
        distances = np.minimum(
            distances, np.sum((points - centroids[index]) ** 2, axis=1)
        )
    return centroids


def kmeans(points: np.ndarray, k: int, seed: int = 0) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding and multiple restarts."""
    n = points.shape[0]
    if k <= 0:
        raise ValueError("k must be positive")
    k = min(k, n)
    rng = np.random.default_rng(seed)
    best: KMeansResult | None = None

    for _restart in range(RESTARTS):
        centroids = _kmeans_plus_plus(points, k, rng)
        assignments = np.zeros(n, dtype=np.int64)
        for _iteration in range(MAX_ITERATIONS):
            # Assign.
            distances = (
                np.sum(points ** 2, axis=1, keepdims=True)
                - 2.0 * points @ centroids.T
                + np.sum(centroids ** 2, axis=1)
            )
            new_assignments = np.argmin(distances, axis=1)
            if np.array_equal(new_assignments, assignments) and _iteration:
                break
            assignments = new_assignments
            # Update; an emptied cluster keeps its old centroid.
            for cluster in range(k):
                members = points[assignments == cluster]
                if len(members):
                    centroids[cluster] = members.mean(axis=0)
        inertia = float(
            np.sum(
                (points - centroids[assignments]) ** 2
            )
        )
        if best is None or inertia < best.inertia:
            best = KMeansResult(
                assignments=assignments.copy(),
                centroids=centroids.copy(),
                inertia=inertia,
                k=k,
            )
    return best
