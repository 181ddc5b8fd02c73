"""Unit + property tests for cluster-sampling statistics (paper §5)."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sampling import cluster_estimate, relative_error, Z_95


class TestClusterEstimate:
    def test_mean(self):
        estimate = cluster_estimate([1.0, 2.0, 3.0])
        assert estimate.mean == pytest.approx(2.0)

    def test_matches_numpy_formulas(self):
        values = [0.5, 0.7, 0.9, 1.1, 0.6]
        estimate = cluster_estimate(values)
        assert estimate.std_dev == pytest.approx(np.std(values, ddof=1))
        assert estimate.std_error == pytest.approx(
            np.std(values, ddof=1) / math.sqrt(len(values))
        )

    def test_single_cluster_degenerates(self):
        estimate = cluster_estimate([0.8])
        assert estimate.mean == 0.8
        assert estimate.std_error == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cluster_estimate([])

    def test_identical_clusters_zero_error(self):
        estimate = cluster_estimate([1.5] * 10)
        assert estimate.std_error == 0.0
        assert estimate.error_bound == 0.0


class TestConfidenceInterval:
    def test_error_bound_is_196_se(self):
        # The interval is always the paper's 95% one: no field selects
        # another level.
        estimate = cluster_estimate([1.0, 2.0, 3.0, 4.0])
        assert estimate.error_bound == Z_95 * estimate.std_error
        assert [f.name for f in dataclasses.fields(estimate)] == [
            "mean", "std_dev", "std_error", "num_clusters"]

    def test_interval_symmetry(self):
        estimate = cluster_estimate([1.0, 2.0, 3.0])
        low, high = estimate.interval
        assert estimate.mean - low == pytest.approx(high - estimate.mean)

    def test_contains_true_value(self):
        estimate = cluster_estimate([0.9, 1.0, 1.1])
        assert estimate.contains(1.0)
        assert not estimate.contains(5.0)

    def test_degenerate_interval_contains_only_mean(self):
        estimate = cluster_estimate([2.0, 2.0])
        assert estimate.contains(2.0)
        assert not estimate.contains(2.0001)

    def test_str_renders(self):
        text = str(cluster_estimate([1.0, 2.0]))
        assert "±" in text and "n=2" in text


class TestRelativeError:
    def test_basic(self):
        assert relative_error(2.0, 1.8) == pytest.approx(0.1)

    def test_symmetric_in_magnitude(self):
        assert relative_error(2.0, 2.2) == pytest.approx(0.1)

    def test_zero_true_rejected(self):
        with pytest.raises(ValueError):
            relative_error(0.0, 1.0)

    def test_exact_estimate(self):
        assert relative_error(1.5, 1.5) == 0.0


@given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2,
                max_size=100))
@settings(max_examples=200, deadline=None)
def test_estimate_invariants(values):
    estimate = cluster_estimate(values)
    ulp = 1e-12 * max(abs(v) for v in values)
    assert min(values) - ulp <= estimate.mean <= max(values) + ulp
    assert estimate.std_error >= 0
    assert estimate.std_error <= estimate.std_dev
    low, high = estimate.interval
    assert low <= estimate.mean <= high
    assert estimate.contains(estimate.mean)


@given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=8,
                max_size=50),
       st.integers(min_value=2, max_value=5))
@settings(max_examples=100, deadline=None)
def test_standard_error_shrinks_with_replication(values, factor):
    """Replicating the sample k times divides SE by ~sqrt(k) (up to the
    Bessel ddof correction, which vanishes as n grows)."""
    base = cluster_estimate(values)
    replicated = cluster_estimate(values * factor)
    if base.std_error > 0:
        n, k = len(values), factor
        correction = math.sqrt(((n - 1) / n) * (k * n / (k * n - 1)))
        expected = base.std_error / math.sqrt(k) * correction
        assert replicated.std_error == pytest.approx(expected, rel=1e-9)
