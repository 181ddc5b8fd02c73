"""Unit + property tests for the SimPoint k-means implementation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simpoint import kmeans, random_projection


def blobs(centers, per_cluster=20, spread=0.05, seed=0):
    rng = np.random.default_rng(seed)
    points = []
    for center in centers:
        points.append(
            np.asarray(center) + rng.normal(0, spread,
                                            (per_cluster, len(center)))
        )
    return np.vstack(points)


class TestKMeans:
    def test_k1_centroid_is_mean(self):
        points = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        result = kmeans(points, 1)
        assert np.allclose(result.centroids[0], [1.0, 1.0])

    def test_recovers_separated_clusters(self):
        points = blobs([[0, 0], [10, 10], [0, 10]])
        result = kmeans(points, 3, seed=1)
        sizes = sorted(np.bincount(result.assignments, minlength=3))
        assert sizes == [20, 20, 20]

    def test_assignments_cover_all_points(self):
        points = blobs([[0, 0], [5, 5]])
        result = kmeans(points, 2)
        assert len(result.assignments) == len(points)
        assert set(result.assignments) <= set(range(2))

    def test_k_capped_at_n(self):
        points = np.array([[0.0], [1.0]])
        result = kmeans(points, 10)
        assert result.k == 2

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((4, 2)), 0)

    def test_deterministic_given_seed(self):
        points = blobs([[0, 0], [5, 5]], seed=3)
        a = kmeans(points, 2, seed=9)
        b = kmeans(points, 2, seed=9)
        assert np.array_equal(a.assignments, b.assignments)

    def test_inertia_decreases_with_k(self):
        points = blobs([[0, 0], [10, 0], [0, 10], [10, 10]])
        inertia = [kmeans(points, k, seed=2).inertia for k in (1, 2, 4)]
        assert inertia[0] > inertia[1] > inertia[2]


class TestProjection:
    def test_reduces_dimensionality(self):
        vectors = np.random.default_rng(0).random((10, 100))
        projected = random_projection(vectors, dims=15)
        assert projected.shape == (10, 15)

    def test_small_inputs_pass_through(self):
        vectors = np.random.default_rng(0).random((10, 5))
        projected = random_projection(vectors, dims=15)
        assert projected.shape == (10, 5)

    def test_deterministic(self):
        vectors = np.random.default_rng(0).random((6, 50))
        assert np.array_equal(
            random_projection(vectors, seed=4),
            random_projection(vectors, seed=4),
        )

    def test_approximately_preserves_distances(self):
        rng = np.random.default_rng(1)
        vectors = rng.random((20, 400))
        projected = random_projection(vectors, dims=15, seed=0)
        original = np.linalg.norm(vectors[0] - vectors[1])
        reduced = np.linalg.norm(projected[0] - projected[1])
        assert reduced == pytest.approx(original, rel=0.6)


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=100))
@settings(max_examples=30, deadline=None)
def test_kmeans_partitions_points(k, seed):
    rng = np.random.default_rng(seed)
    points = rng.random((24, 3))
    result = kmeans(points, k, seed=seed)
    assert np.bincount(result.assignments, minlength=k).sum() == 24
    assert result.inertia >= 0
