"""Sampling-regimen design: choosing cluster counts from a pilot study.

"The larger the sample, the more likely the estimates obtained from that
sample will be correct.  However, as the sample size increases, so does
the simulation time.  Conversely, a sample that is too small can lead to
inaccurate estimates.  Care must be taken to select an appropriate
sampling regimen." (paper §1)

This module automates that care with the standard sample-size
calculation: a small pilot run estimates the between-cluster IPC
standard deviation; the cluster count needed for a target relative error
bound at 95% confidence follows from

    n = (z * sigma / (epsilon * mu))^2 .
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..warmup.base import WarmupMethod
from ..warmup.fixed_period import SmartsWarmup
from ..workloads import Workload
from .controller import SampledSimulator, SimulatorConfigs
from .regimen import SamplingRegimen
from .statistics import Z_95, cluster_estimate


@dataclass
class RegimenRecommendation:
    """Outcome of a pilot-driven regimen design."""

    workload_name: str
    cluster_size: int
    pilot_clusters: int
    pilot_mean_ipc: float
    pilot_std_dev: float
    target_relative_error: float
    recommended_clusters: int

    @property
    def predicted_error_bound(self) -> float:
        """Predicted ±95% half-width at the recommended cluster count."""
        if self.recommended_clusters <= 0:
            return 0.0
        return Z_95 * self.pilot_std_dev / math.sqrt(
            self.recommended_clusters
        )

    def regimen(self, total_instructions: int,
                seed: int = 12345) -> SamplingRegimen:
        """Materialise the recommended design over a population."""
        return SamplingRegimen(
            total_instructions=total_instructions,
            num_clusters=self.recommended_clusters,
            cluster_size=self.cluster_size,
            seed=seed,
        )


def clusters_for_error(mean: float, std_dev: float,
                       target_relative_error: float) -> int:
    """Clusters needed so that Z_95*SE <= target_relative_error * mean."""
    if mean <= 0:
        raise ValueError("mean must be positive")
    if not 0 < target_relative_error < 1:
        raise ValueError("target_relative_error must be in (0, 1)")
    if std_dev == 0:
        return 1
    needed = (Z_95 * std_dev / (target_relative_error * mean)) ** 2
    return max(1, math.ceil(needed))


def pilot_study(
    workload: Workload,
    total_instructions: int,
    cluster_size: int,
    pilot_clusters: int = 8,
    configs: SimulatorConfigs | None = None,
    warmup: WarmupMethod | None = None,
    warmup_prefix: int = 0,
    seed: int = 97,
) -> tuple[float, float]:
    """Run a small warmed sample; return (mean IPC, cluster std-dev)."""
    regimen = SamplingRegimen(
        total_instructions=total_instructions,
        num_clusters=pilot_clusters,
        cluster_size=cluster_size,
        seed=seed,
    )
    simulator = SampledSimulator(
        workload, regimen, configs, warmup_prefix=warmup_prefix,
    )
    method = warmup if warmup is not None else SmartsWarmup()
    result = simulator.run(method)
    estimate = cluster_estimate(result.cluster_ipcs)
    return estimate.mean, estimate.std_dev


def recommend_regimen(
    workload: Workload,
    total_instructions: int,
    cluster_size: int,
    target_relative_error: float = 0.03,
    pilot_clusters: int = 8,
    configs: SimulatorConfigs | None = None,
    warmup_prefix: int = 0,
    seed: int = 97,
) -> RegimenRecommendation:
    """Design a regimen hitting `target_relative_error` at 95% confidence.

    The recommendation is capped so the sample still fits the population
    (at most half of it, per :class:`SamplingRegimen`'s constraint).
    """
    mean, std_dev = pilot_study(
        workload, total_instructions, cluster_size,
        pilot_clusters=pilot_clusters, configs=configs,
        warmup_prefix=warmup_prefix, seed=seed,
    )
    recommended = clusters_for_error(mean, std_dev, target_relative_error)
    maximum = total_instructions // (2 * cluster_size)
    recommended = min(recommended, maximum)
    return RegimenRecommendation(
        workload_name=workload.name,
        cluster_size=cluster_size,
        pilot_clusters=pilot_clusters,
        pilot_mean_ipc=mean,
        pilot_std_dev=std_dev,
        target_relative_error=target_relative_error,
        recommended_clusters=recommended,
    )
