"""Regression tests for experiment-harness correctness fixes.

A grid run with a caller-supplied ``configs`` once used it for the
sampled runs but built the true-IPC baseline from ``scale.configs()``,
scoring outcomes against the wrong baseline.
"""

from __future__ import annotations

from repro.branch import paper_predictor_config
from repro.cache import paper_hierarchy_config
from repro.harness import SCALES, execute_matrix, true_run_for
from repro.sampling import SimulatorConfigs
from repro.warmup import resolve_method

CI = SCALES["ci"]


def tiny_configs() -> SimulatorConfigs:
    """A deliberately different microarchitecture from CI.configs()."""
    return SimulatorConfigs(
        hierarchy=paper_hierarchy_config(scale=64),
        predictor=paper_predictor_config(scale=64),
    )


class TestTrueRunConfigs:
    def test_configs_participate_in_cache_key(self):
        default_run = true_run_for("ammp", CI)
        override_run = true_run_for("ammp", CI, tiny_configs())
        assert default_run.cycles != override_run.cycles
        # Same inputs hit the per-process cache, not a recomputation.
        assert true_run_for("ammp", CI, tiny_configs()) is override_run
        assert true_run_for("ammp", CI, CI.configs()) is default_run

    def test_experiment_scored_against_matching_baseline(self):
        configs = tiny_configs()
        experiment = execute_matrix(
            lambda: [resolve_method("None")], ("ammp",), CI,
            configs=configs, jobs=1,
        )["ammp"]
        assert experiment.true_run == true_run_for("ammp", CI, configs)
        assert experiment.true_run != true_run_for("ammp", CI)
