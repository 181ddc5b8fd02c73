"""Unit tests for the experiment harness and reporting."""

import pytest

from repro.harness import (
    ExperimentScale,
    SCALES,
    scale_from_env,
    execute_matrix,
    average_over_workloads,
    format_table,
    format_table1,
    format_method_summary,
    format_per_workload,
    format_speedups,
)
from repro.warmup import NoWarmup, SmartsWarmup
from repro.core import ReverseStateReconstruction


TINY = ExperimentScale("tiny", total_instructions=24_000, num_clusters=4,
                       cluster_size=600)


def tiny_methods():
    return [NoWarmup(), SmartsWarmup(), ReverseStateReconstruction(0.2)]


@pytest.fixture(scope="module")
def matrix():
    return execute_matrix(tiny_methods, workload_names=("ammp", "mcf"),
                          scale=TINY, jobs=1)


class TestScales:
    def test_presets_exist(self):
        assert {"ci", "bench", "default", "full"} <= set(SCALES)

    def test_scale_from_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXPERIMENT_SCALE", raising=False)
        assert scale_from_env("ci").name == "ci"

    def test_scale_from_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "full")
        assert scale_from_env("ci").name == "full"

    def test_scale_from_env_unknown(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "galactic")
        with pytest.raises(ValueError):
            scale_from_env()

    def test_regimen_derivation(self):
        regimen = TINY.regimen()
        assert regimen.total_instructions == 24_000
        assert regimen.num_clusters == 4


class TestMatrix:
    def test_structure(self, matrix):
        assert set(matrix) == {"ammp", "mcf"}
        for experiment in matrix.values():
            assert set(experiment.outcomes) == \
                {"None", "S$BP", "R$BP (20%)"}

    def test_true_ipc_positive(self, matrix):
        for experiment in matrix.values():
            assert experiment.true_ipc > 0

    def test_outcome_metrics(self, matrix):
        outcome = matrix["ammp"].outcomes["S$BP"]
        assert outcome.relative_error >= 0
        assert outcome.work_units > 0
        assert outcome.wall_seconds > 0
        assert isinstance(outcome.passes_confidence, bool)

    def test_speedup_of_baseline_is_one(self, matrix):
        assert matrix["ammp"].speedup("S$BP") == pytest.approx(1.0)

    def test_rsr_speedup_above_one(self, matrix):
        assert matrix["ammp"].speedup("R$BP (20%)") > 1.0

    def test_average_over_workloads(self, matrix):
        error, work, wall = average_over_workloads(matrix, "None")
        assert error >= 0 and work > 0 and wall > 0

    def test_true_runs_cached(self):
        from repro.harness import true_run_for
        a = true_run_for("ammp", TINY)
        b = true_run_for("ammp", TINY)
        assert a is b


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbbb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].index("bbbb") == lines[2].index("2")

    def test_table1(self, matrix):
        text = format_table1(matrix)
        assert "true IPC" in text
        assert "ammp" in text and "mcf" in text

    def test_method_summary(self, matrix):
        text = format_method_summary(matrix, ["None", "S$BP"], "Figure 7")
        assert "Figure 7" in text
        assert "%" in text

    def test_per_workload_grid(self, matrix):
        for value in ("error", "work", "wall", "ci", "ipc"):
            text = format_per_workload(matrix, ["None"], value=value)
            assert "None" in text
        with pytest.raises(ValueError):
            format_per_workload(matrix, ["None"], value="bogus")

    def test_speedups_table(self, matrix):
        text = format_speedups(matrix, "R$BP (20%)")
        assert "AVG" in text
        assert "x" in text


class TestWorkloadExperimentDirect:
    def test_single_workload(self):
        experiment = execute_matrix(tiny_methods, workload_names=("art",),
                                    scale=TINY, jobs=1)["art"]
        assert experiment.workload_name == "art"
        assert len(experiment.outcomes) == 3


class TestEmptyGridGuards:
    """An empty matrix must render/average gracefully, not divide by zero."""

    def test_average_over_empty_matrix(self):
        assert average_over_workloads({}, "S$BP") == (0.0, 0.0, 0.0)

    def test_speedups_over_empty_matrix(self):
        text = format_speedups({}, "R$BP (20%)")
        assert "AVG" in text
        assert "-" in text
