"""Experiment harness: the paper's evaluation matrix.

Couples workloads, sampling regimens, warm-up methods, and true-IPC
baselines into the (workload x method) grids behind every figure and
table.  Scale presets map the paper's 6-billion-instruction runs onto
laptop-sized populations; set ``REPRO_EXPERIMENT_SCALE`` to ``ci``,
``bench``, ``default``, or ``full`` (or pass a :class:`ExperimentScale`)
to trade fidelity for time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache

from ..branch import paper_predictor_config
from ..cache import paper_hierarchy_config
from ..sampling import (
    SampledRunResult,
    SampledSimulator,
    SamplingRegimen,
    SimulatorConfigs,
    TrueRunResult,
    measure_true_ipc,
)
from ..warmup import WarmupMethod
from ..workloads import PAPER_WORKLOADS, cached_workload


@dataclass(frozen=True)
class ExperimentScale:
    """Population and regimen sizes for one experiment tier."""

    name: str
    total_instructions: int
    num_clusters: int
    cluster_size: int
    mem_scale: int = 1
    seed: int = 2007  # fixed uniform draw shared by every method
    #: Instructions functionally warmed before the measured population so
    #: both the true-IPC baseline and every sampled run start from the
    #: same steady state (removes the cold-start artifact of short
    #: populations; see DESIGN.md).
    warmup_prefix: int = 40_000
    #: Divisor applied to the paper's cache/predictor geometry so that
    #: skip regions are many times the cache capacity, as in the paper.
    microarch_scale: int = 32
    #: SMARTS-style detailed-warming instructions per cluster (simulated
    #: hot, excluded from measurement) hiding the pipeline-restart ramp.
    detail_ramp: int = 256

    def regimen(self) -> SamplingRegimen:
        return SamplingRegimen(
            total_instructions=self.total_instructions,
            num_clusters=self.num_clusters,
            cluster_size=self.cluster_size,
            seed=self.seed,
        )

    def configs(self) -> SimulatorConfigs:
        return SimulatorConfigs(
            hierarchy=paper_hierarchy_config(scale=self.microarch_scale),
            predictor=paper_predictor_config(scale=self.microarch_scale),
        )


SCALES: dict[str, ExperimentScale] = {
    # Unit-test tier: seconds per workload.
    "ci": ExperimentScale("ci", 160_000, 10, 800, warmup_prefix=20_000),
    # Benchmark tier: the default for the figure-regeneration benches.
    "bench": ExperimentScale("bench", 480_000, 20, 1_200),
    # Interactive tier.
    "default": ExperimentScale("default", 640_000, 25, 1_200),
    # Closest to the paper's regimen proportions; minutes per figure.
    "full": ExperimentScale("full", 1_440_000, 30, 2_000,
                            warmup_prefix=60_000),
}


def scale_from_env(default: str = "bench") -> ExperimentScale:
    """Resolve the experiment scale from ``REPRO_EXPERIMENT_SCALE``."""
    name = os.environ.get("REPRO_EXPERIMENT_SCALE", default)
    try:
        return SCALES[name]
    except KeyError:
        known = ", ".join(sorted(SCALES))
        raise ValueError(
            f"REPRO_EXPERIMENT_SCALE={name!r} unknown; known: {known}"
        ) from None


@dataclass
class MethodOutcome:
    """One (workload, method) cell of the evaluation matrix."""

    run: SampledRunResult
    true_ipc: float

    @property
    def method_name(self) -> str:
        return self.run.method_name

    @property
    def relative_error(self) -> float:
        return self.run.relative_error(self.true_ipc)

    @property
    def passes_confidence(self) -> bool:
        return self.run.passes_confidence_test(self.true_ipc)

    @property
    def work_units(self) -> float:
        return self.run.work_units()

    @property
    def wall_seconds(self) -> float:
        return self.run.wall_seconds


@dataclass
class WorkloadExperiment:
    """All method outcomes for one workload under one regimen."""

    workload_name: str
    true_run: TrueRunResult
    outcomes: dict[str, MethodOutcome] = field(default_factory=dict)

    @property
    def true_ipc(self) -> float:
        return self.true_run.ipc

    def speedup(self, method_name: str, baseline: str = "S$BP") -> float:
        """Work-metric speedup of `method_name` relative to `baseline`."""
        numerator = self.outcomes[baseline].work_units
        denominator = self.outcomes[method_name].work_units
        return numerator / denominator if denominator else float("inf")

    def wall_speedup(self, method_name: str, baseline: str = "S$BP") -> float:
        numerator = self.outcomes[baseline].wall_seconds
        denominator = self.outcomes[method_name].wall_seconds
        return numerator / denominator if denominator else float("inf")


@lru_cache(maxsize=None)
def _true_run_cached(workload_name: str,
                     scale: ExperimentScale,
                     configs: SimulatorConfigs) -> TrueRunResult:
    workload = cached_workload(workload_name, mem_scale=scale.mem_scale)
    return measure_true_ipc(workload, scale.total_instructions,
                            configs,
                            warmup_prefix=scale.warmup_prefix)


def true_run_for(workload_name: str,
                 scale: ExperimentScale,
                 configs: SimulatorConfigs | None = None) -> TrueRunResult:
    """Full-trace detailed baseline, cached per process.

    `configs` must match the microarchitecture the sampled runs use —
    it participates in the cache key, so a caller-supplied override is
    scored against a baseline built from the same configuration rather
    than silently falling back to ``scale.configs()``.
    """
    configs = configs if configs is not None else scale.configs()
    return _true_run_cached(workload_name, scale, configs)


def run_workload_experiment(
    workload_name: str,
    methods: list[WarmupMethod],
    scale: ExperimentScale,
    configs: SimulatorConfigs | None = None,
) -> WorkloadExperiment:
    """Run every method on one workload (same clusters for all methods)."""
    configs = configs if configs is not None else scale.configs()
    workload = cached_workload(workload_name, mem_scale=scale.mem_scale)
    true_run = true_run_for(workload_name, scale, configs)
    simulator = SampledSimulator(
        workload, scale.regimen(), configs,
        warmup_prefix=scale.warmup_prefix,
        detail_ramp=scale.detail_ramp,
    )
    experiment = WorkloadExperiment(
        workload_name=workload_name, true_run=true_run
    )
    for method in methods:
        run = simulator.run(method)
        experiment.outcomes[run.method_name] = MethodOutcome(
            run=run, true_ipc=true_run.ipc
        )
    return experiment


def run_matrix(
    method_factory,
    workload_names: tuple[str, ...] = PAPER_WORKLOADS,
    scale: ExperimentScale | None = None,
    configs: SimulatorConfigs | None = None,
) -> dict[str, WorkloadExperiment]:
    """Run a methods-by-workloads grid.

    `method_factory` is a zero-argument callable returning a fresh list of
    warm-up methods (fresh per workload, so no state leaks between runs).
    """
    scale = scale if scale is not None else scale_from_env()
    return {
        name: run_workload_experiment(
            name, method_factory(), scale, configs
        )
        for name in workload_names
    }


@lru_cache(maxsize=4)
def _full_matrix_cached(scale_name: str) -> dict[str, WorkloadExperiment]:
    from ..warmup import paper_method_suite

    return run_matrix(paper_method_suite, scale=SCALES[scale_name])


def full_matrix(scale_name: str = "") -> dict[str, WorkloadExperiment]:
    """The complete Table 2 grid (16 methods x 9 workloads), cached.

    Several figures and the appendix tables slice the same grid; caching
    per process lets the benches share one run.  An empty `scale_name`
    resolves through ``REPRO_EXPERIMENT_SCALE`` *before* the cache is
    consulted, so changing the environment variable between calls never
    returns the grid computed for the previous scale.
    """
    scale = SCALES[scale_name] if scale_name else scale_from_env()
    return _full_matrix_cached(scale.name)


def average_over_workloads(
    matrix: dict[str, WorkloadExperiment], method_name: str
) -> tuple[float, float, float]:
    """(mean relative error, mean work units, mean wall seconds)."""
    outcomes = [
        experiment.outcomes[method_name] for experiment in matrix.values()
    ]
    n = len(outcomes)
    if n == 0:
        # An empty grid (no workloads selected) has no meaningful
        # averages; zeros keep report formatters total rather than raise.
        return (0.0, 0.0, 0.0)
    return (
        sum(outcome.relative_error for outcome in outcomes) / n,
        sum(outcome.work_units for outcome in outcomes) / n,
        sum(outcome.wall_seconds for outcome in outcomes) / n,
    )
