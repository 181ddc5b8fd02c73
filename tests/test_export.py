"""Tests for CSV/JSON experiment export."""

import csv
import io
import json

import pytest

from repro.core import ReverseStateReconstruction
from repro.harness import (
    ExperimentScale,
    matrix_rows,
    matrix_to_csv,
    matrix_to_json,
    execute_matrix,
    save_matrix,
)
from repro.warmup import NoWarmup, SmartsWarmup


TINY = ExperimentScale("tiny-export", total_instructions=24_000,
                       num_clusters=4, cluster_size=600,
                       warmup_prefix=4_000)


@pytest.fixture(scope="module")
def matrix():
    return execute_matrix(
        lambda: [NoWarmup(), SmartsWarmup(),
                 ReverseStateReconstruction(0.2)],
        workload_names=("ammp",),
        scale=TINY,
        jobs=1,
    )


class TestRows:
    def test_one_row_per_cell(self, matrix):
        rows = matrix_rows(matrix)
        assert len(rows) == 3
        assert {row["method"] for row in rows} == \
            {"None", "S$BP", "R$BP (20%)"}

    def test_row_contents(self, matrix):
        row = next(r for r in matrix_rows(matrix) if r["method"] == "S$BP")
        assert row["workload"] == "ammp"
        assert row["true_ipc"] > 0
        assert row["estimated_ipc"] > 0
        assert isinstance(row["ci_pass"], bool)
        assert row["cache_updates"] > 0
        assert row["work_units"] > 0

    def test_compaction_columns_stable_when_untraced(self, matrix):
        # Untraced runs still carry the skip-log columns (as None) so
        # the CSV/JSON schema does not depend on tracing being enabled.
        for row in matrix_rows(matrix):
            for column in ("log_raw_records", "log_stored_records",
                           "log_stored_bytes", "log_dedup_ratio"):
                assert column in row
                assert row[column] is None

    def test_shard_columns_default_for_serial_runs(self, matrix):
        # Serial cells still carry the shard-provenance columns so the
        # CSV/JSON schema is identical with and without --cluster-jobs.
        for row in matrix_rows(matrix):
            assert row["sharded"] is False
            assert row["cluster_jobs"] == 1

    def test_compaction_columns_populated_when_traced(self, monkeypatch):
        from repro.telemetry import TRACE_ENV_VAR

        monkeypatch.setenv(TRACE_ENV_VAR, "1")
        traced = execute_matrix(
            lambda: [ReverseStateReconstruction(1.0)],
            workload_names=("ammp",),
            scale=TINY,
            jobs=1,
        )
        row = matrix_rows(traced)[0]
        assert row["log_raw_records"] > 0
        assert 0 < row["log_stored_records"] <= row["log_raw_records"]
        assert row["log_stored_bytes"] > 0
        assert row["log_dedup_ratio"] >= 1.0


class TestFormats:
    def test_csv_parses_back(self, matrix):
        text = matrix_to_csv(matrix)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 3
        assert parsed[0]["workload"] == "ammp"

    def test_json_parses_back(self, matrix):
        payload = json.loads(matrix_to_json(matrix))
        assert len(payload) == 3
        assert all("relative_error" in row for row in payload)

    def test_empty_matrix_csv(self):
        assert matrix_to_csv({}) == ""


class TestSave:
    def test_save_csv(self, matrix, tmp_path):
        path = tmp_path / "results.csv"
        save_matrix(matrix, path)
        assert path.read_text().startswith("workload,")

    def test_save_json(self, matrix, tmp_path):
        path = tmp_path / "results.json"
        save_matrix(matrix, path)
        assert json.loads(path.read_text())

    def test_unknown_extension_rejected(self, matrix, tmp_path):
        with pytest.raises(ValueError):
            save_matrix(matrix, tmp_path / "results.xml")
