"""Sample statistics for cluster-sampled IPC estimates (paper §5).

Implements the estimators the paper uses verbatim:

- the cluster-sample standard deviation over per-cluster mean IPCs,
- the standard error  S_ipc / sqrt(N_cluster),
- the 95% confidence interval  mean ± 1.96 * standard error,
- relative error against the true (full-trace) IPC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Two-sided 95% normal quantile used by the paper.
Z_95 = 1.96


@dataclass(frozen=True)
class SampleEstimate:
    """A cluster-sample estimate with its confidence interval."""

    mean: float
    std_dev: float
    std_error: float
    num_clusters: int

    @property
    def error_bound(self) -> float:
        """Half-width of the confidence interval (±1.96 * SE at 95%)."""
        return Z_95 * self.std_error

    @property
    def interval(self) -> tuple[float, float]:
        bound = self.error_bound
        return self.mean - bound, self.mean + bound

    def contains(self, true_value: float) -> bool:
        """Does the confidence interval cover `true_value`?

        This is the paper's per-workload "confidence test" (appendix):
        a warm-up method passes when the true IPC falls inside the
        sample's 95% interval.
        """
        low, high = self.interval
        return low <= true_value <= high

    def __str__(self) -> str:
        low, high = self.interval
        return (
            f"{self.mean:.4f} ± {self.error_bound:.4f} "
            f"[{low:.4f}, {high:.4f}] (n={self.num_clusters})"
        )


def cluster_estimate(cluster_means: list[float]) -> SampleEstimate:
    """Estimate the population mean from per-cluster means.

    Uses the paper's formulas: S = sqrt(sum((mu_i - mu)^2) / (N - 1)),
    SE = S / sqrt(N).
    """
    n = len(cluster_means)
    if n == 0:
        raise ValueError("no clusters")
    mean = sum(cluster_means) / n
    if n == 1:
        return SampleEstimate(mean=mean, std_dev=0.0, std_error=0.0,
                              num_clusters=1)
    variance = sum((m - mean) ** 2 for m in cluster_means) / (n - 1)
    std_dev = math.sqrt(variance)
    return SampleEstimate(
        mean=mean,
        std_dev=std_dev,
        std_error=std_dev / math.sqrt(n),
        num_clusters=n,
    )


def relative_error(true_value: float, sample_value: float) -> float:
    """|true - sample| / true (paper's RE(IPC))."""
    if true_value == 0:
        raise ValueError("true value must be non-zero")
    return abs(true_value - sample_value) / abs(true_value)
