"""Regression tests for experiment-harness correctness fixes.

Covers two bugs fixed alongside the parallel engine:

- ``full_matrix("")`` used to cache under the literal empty string, so
  changing ``REPRO_EXPERIMENT_SCALE`` between calls silently returned
  the grid computed for the *previous* scale;
- ``run_workload_experiment`` used a caller-supplied ``configs`` for the
  sampled runs but always built the true-IPC baseline from
  ``scale.configs()``, scoring outcomes against the wrong baseline.
"""

from __future__ import annotations

import pytest

from repro.branch import paper_predictor_config
from repro.cache import paper_hierarchy_config
from repro.harness import experiment as experiment_module
from repro.harness.experiment import (
    SCALES,
    full_matrix,
    run_workload_experiment,
    true_run_for,
)
from repro.sampling import SimulatorConfigs
from repro.warmup import resolve_method

CI = SCALES["ci"]


def tiny_configs() -> SimulatorConfigs:
    """A deliberately different microarchitecture from CI.configs()."""
    return SimulatorConfigs(
        hierarchy=paper_hierarchy_config(scale=64),
        predictor=paper_predictor_config(scale=64),
    )


class TestFullMatrixScaleResolution:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        experiment_module._full_matrix_cached.cache_clear()
        yield
        experiment_module._full_matrix_cached.cache_clear()

    def test_env_change_between_calls_is_honoured(self, monkeypatch):
        seen = []

        def fake_run_matrix(method_factory, scale=None, **kwargs):
            seen.append(scale.name)
            return {"grid-for": scale.name}

        monkeypatch.setattr(experiment_module, "run_matrix",
                            fake_run_matrix)
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        assert full_matrix("") == {"grid-for": "ci"}
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "bench")
        assert full_matrix("") == {"grid-for": "bench"}
        assert seen == ["ci", "bench"]

    def test_resolved_scale_still_cached(self, monkeypatch):
        calls = []

        def fake_run_matrix(method_factory, scale=None, **kwargs):
            calls.append(scale.name)
            return {}

        monkeypatch.setattr(experiment_module, "run_matrix",
                            fake_run_matrix)
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        full_matrix("")
        full_matrix("ci")  # explicit name resolves to the same entry
        full_matrix("")
        assert calls == ["ci"]


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
        experiment = run_workload_experiment(
            "ammp", [resolve_method("None")], CI, configs=configs,
        )
        assert experiment.true_run == true_run_for("ammp", CI, configs)
        assert experiment.true_run != true_run_for("ammp", CI)
