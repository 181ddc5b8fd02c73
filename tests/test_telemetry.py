"""Tests for the telemetry subsystem: registry, sessions, traces, and
their integration through the controller, harness, and parallel engine."""

import json

import pytest

from repro.harness.experiment import SCALES
from repro.harness.parallel import execute_matrix, merged_telemetry
from repro.harness.reporting import format_telemetry_summary
from repro.sampling import SampledSimulator, SamplingRegimen
from repro.telemetry import (
    EMPTY_SNAPSHOT,
    NULL_TELEMETRY,
    HistogramSummary,
    MetricsRegistry,
    NullRegistry,
    Telemetry,
    TelemetrySnapshot,
    merge_snapshots,
    read_trace,
    telemetry_from_env,
    write_trace,
)
from repro.warmup import resolve_method
from repro.workloads import build_workload

CI = SCALES["ci"]
METHOD_NAMES = ("None", "S$BP", "R$BP (20%)")


def small_suite():
    """Picklable module-level method factory (crosses the pool boundary)."""
    return [resolve_method(name) for name in METHOD_NAMES]


def make_simulator(workload_name="ammp", telemetry=None):
    workload = build_workload(workload_name, mem_scale=CI.mem_scale)
    return SampledSimulator(
        workload, CI.regimen(), CI.configs(),
        warmup_prefix=CI.warmup_prefix,
        detail_ramp=CI.detail_ramp,
        telemetry=telemetry,
    )


class TestRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(4)
        assert registry.counter_values() == {"a": 5}

    def test_instruments_are_cached_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("y") is registry.gauge("y")
        assert registry.histogram("z") is registry.histogram("z")

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.0)
        registry.gauge("g").set(7.5)
        assert registry.gauge_values() == {"g": 7.5}

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        for value in (1.0, 3.0, 2.0):
            registry.histogram("h").observe(value)
        summary = registry.histogram_summaries()["h"]
        assert summary.count == 3
        assert summary.total == 6.0
        assert summary.min == 1.0
        assert summary.max == 3.0
        assert summary.mean == 2.0

    def test_null_registry_shares_noop_instruments(self):
        registry = NullRegistry()
        counter = registry.counter("anything")
        assert counter is registry.counter("else")
        counter.inc(100)
        registry.gauge("g").set(3.0)
        registry.histogram("h").observe(1.0)
        assert registry.counter_values() == {}
        assert registry.gauge_values() == {}
        assert registry.histogram_summaries() == {}


class TestSnapshotMerge:
    def test_counters_and_phases_sum(self):
        a = TelemetrySnapshot(counters={"x": 1, "y": 2},
                              phase_seconds={"hot_sim": 1.0})
        b = TelemetrySnapshot(counters={"y": 3, "z": 5},
                              phase_seconds={"hot_sim": 0.5,
                                             "cold_skip": 2.0})
        merged = a.merge(b)
        assert merged.counters == {"x": 1, "y": 5, "z": 5}
        assert merged.phase_seconds == {"hot_sim": 1.5, "cold_skip": 2.0}

    def test_histograms_combine(self):
        a = TelemetrySnapshot(histograms={
            "h": HistogramSummary(count=2, total=3.0, min=1.0, max=2.0)
        })
        b = TelemetrySnapshot(histograms={
            "h": HistogramSummary(count=1, total=4.0, min=4.0, max=4.0)
        })
        merged = a.merge(b).histograms["h"]
        assert merged.count == 3
        assert merged.total == 7.0
        assert (merged.min, merged.max) == (1.0, 4.0)

    def test_records_sorted_deterministically(self):
        a = TelemetrySnapshot(trace_records=[
            {"workload": "gcc", "method": "S$BP", "cluster": 0},
        ])
        b = TelemetrySnapshot(trace_records=[
            {"workload": "ammp", "method": "S$BP", "cluster": 1},
            {"workload": "ammp", "method": "S$BP", "cluster": 0},
        ])
        merged = a.merge(b)
        assert [(r["workload"], r["cluster"])
                for r in merged.trace_records] == [
            ("ammp", 0), ("ammp", 1), ("gcc", 0),
        ]

    def test_merge_snapshots_skips_none(self):
        only = TelemetrySnapshot(counters={"x": 1})
        assert merge_snapshots([None, only, None]) is only
        assert merge_snapshots([None, None]) is None
        assert merge_snapshots([]) is None


class TestTraceIO:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        records = [{"type": "cluster", "cluster": i} for i in range(3)]
        assert write_trace(records, path) == 3
        assert read_trace(path) == records

    def test_every_line_is_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace([{"a": 1}, {"b": [1, 2]}], path)
        with open(path, encoding="utf-8") as stream:
            lines = [line for line in stream if line.strip()]
        assert len(lines) == 2
        for line in lines:
            json.loads(line)


class TestSession:
    def test_phase_timer_accumulates(self):
        telemetry = Telemetry()
        with telemetry.phase("hot_sim"):
            pass
        with telemetry.phase("hot_sim"):
            pass
        assert telemetry.phase_seconds["hot_sim"] >= 0.0
        assert set(telemetry.phase_seconds) == {"hot_sim"}

    def test_cluster_scope_attributes_deltas(self):
        telemetry = Telemetry()
        telemetry.count("reconstruct.blocks_applied", 5)  # pre-cluster
        telemetry.begin_cluster()
        telemetry.count("reconstruct.blocks_applied", 3)
        telemetry.count("reconstruct.pht_entries", 2)
        telemetry.count("other.metric", 7)
        with telemetry.phase("hot_sim"):
            pass
        record = telemetry.end_cluster({"cluster": 0})
        assert record["blocks_reconstructed"] == 3
        assert record["pht_entries_reconstructed"] == 2
        assert record["counters"] == {"other.metric": 7}
        assert record["wall_seconds"] == pytest.approx(
            record["cold_skip_seconds"] + record["reconstruct_seconds"]
            + record["hot_sim_seconds"]
        )
        assert telemetry.trace_records == [record]

    def test_flush_trace_writes_each_record_once(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry = Telemetry(trace_path=str(path))
        telemetry.emit({"a": 1})
        assert telemetry.flush_trace() == 1
        assert telemetry.flush_trace() == 0
        telemetry.emit({"b": 2})
        assert telemetry.flush_trace() == 1
        assert len(read_trace(path)) == 2

    def test_null_session_accepts_full_api(self):
        null = NULL_TELEMETRY
        null.count("x")
        null.observe("y", 1.0)
        null.set_gauge("z", 2.0)
        with null.phase("hot_sim"):
            pass
        null.begin_cluster()
        assert null.end_cluster({"cluster": 0}) is None
        assert null.snapshot() is None
        assert null.flush_trace() == 0
        assert not null.enabled

    def test_env_resolution(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert telemetry_from_env() is NULL_TELEMETRY

        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        session = telemetry_from_env()
        assert session.enabled and session.trace_path is None

        path = str(tmp_path / "trace.jsonl")
        monkeypatch.setenv("REPRO_TRACE", path)
        session = telemetry_from_env()
        assert session.enabled and session.trace_path == path

        monkeypatch.delenv("REPRO_TRACE")
        monkeypatch.setenv("REPRO_TELEMETRY", "off")
        assert telemetry_from_env() is NULL_TELEMETRY


@pytest.fixture(scope="module")
def traced_run():
    simulator = make_simulator(telemetry=Telemetry)
    return simulator.run(resolve_method("R$BP (20%)"))


class TestTracedRun:
    """Acceptance criteria: one record per cluster, consistent with the
    run's WarmupCost and wall_seconds."""

    def test_one_record_per_cluster(self, traced_run):
        snapshot = traced_run.extra["telemetry"]
        records = snapshot.trace_records
        assert len(records) == CI.num_clusters
        assert len(traced_run.cluster_ipcs) == CI.num_clusters
        assert [r["cluster"] for r in records] == list(range(len(records)))
        for record, ipc in zip(records, traced_run.cluster_ipcs):
            assert record["ipc"] == pytest.approx(ipc)

    def test_warm_updates_consistent_with_cost(self, traced_run):
        records = traced_run.extra["telemetry"].trace_records
        cost = traced_run.cost
        assert sum(r["warm_updates"] for r in records) == cost.warm_updates()
        assert sum(r["cache_updates"] for r in records) == cost.cache_updates
        assert (sum(r["predictor_updates"] for r in records)
                == cost.predictor_updates)
        assert sum(r["log_records"] for r in records) == cost.log_records
        assert (sum(r["functional_instructions"] for r in records)
                == cost.functional_instructions)
        assert (sum(r["hot_instructions"] for r in records)
                == cost.hot_instructions)

    def test_phase_times_consistent_with_wall(self, traced_run):
        records = traced_run.extra["telemetry"].trace_records
        summed = sum(r["wall_seconds"] for r in records)
        # Phase timers run inside the measured loop, so their sum cannot
        # exceed the run's wall time (tiny float tolerance only).
        assert summed <= traced_run.wall_seconds * 1.001 + 1e-6
        assert summed > 0.0
        for record in records:
            assert record["wall_seconds"] == pytest.approx(
                record["cold_skip_seconds"] + record["reconstruct_seconds"]
                + record["hot_sim_seconds"]
            )

    def test_reconstruction_counters_reported(self, traced_run):
        snapshot = traced_run.extra["telemetry"]
        assert snapshot.counters["reconstruct.blocks_applied"] > 0
        assert snapshot.counters["reconstruct.pht_entries"] > 0
        assert snapshot.counters["log.memory_records"] > 0
        records = snapshot.trace_records
        assert (sum(r["blocks_reconstructed"] for r in records)
                == snapshot.counters["reconstruct.blocks_applied"])
        assert (sum(r["pht_entries_reconstructed"] for r in records)
                == snapshot.counters["reconstruct.pht_entries"])

    def test_snapshot_is_picklable(self, traced_run):
        import pickle

        snapshot = traced_run.extra["telemetry"]
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.counters == snapshot.counters
        assert clone.trace_records == snapshot.trace_records

    def test_default_run_carries_no_telemetry(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        result = make_simulator().run(resolve_method("None"))
        assert "telemetry" not in result.extra

    def test_repro_trace_env_appends_file(self, monkeypatch, tmp_path):
        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        make_simulator().run(resolve_method("None"))
        records = read_trace(path)
        assert len(records) == CI.num_clusters
        make_simulator().run(resolve_method("None"))
        assert len(read_trace(path)) == 2 * CI.num_clusters


def _strip_timing(record):
    return {key: value for key, value in record.items()
            if not key.endswith("_seconds")}


class TestParallelMerge:
    """Per-cell snapshots merged from pool workers equal an in-process
    serial grid's totals."""

    def test_parallel_merge_matches_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        serial = execute_matrix(small_suite, workload_names=("ammp",),
                                scale=CI, jobs=1)
        parallel = execute_matrix(
            small_suite, workload_names=("ammp",), scale=CI, jobs=2,
        )
        merged_serial = merged_telemetry(serial)
        merged_parallel = merged_telemetry(parallel)
        assert merged_serial is not None and merged_parallel is not None
        assert merged_parallel.counters == merged_serial.counters
        serial_records = sorted(
            (_strip_timing(r) for r in merged_serial.trace_records),
            key=lambda r: (r["workload"], r["method"], r["cluster"]),
        )
        parallel_records = sorted(
            (_strip_timing(r) for r in merged_parallel.trace_records),
            key=lambda r: (r["workload"], r["method"], r["cluster"]),
        )
        assert parallel_records == serial_records
        for name, summary in merged_serial.histograms.items():
            other = merged_parallel.histograms[name]
            assert other.count == summary.count
            assert other.total == pytest.approx(summary.total)

    def test_untraced_grid_merges_to_empty_sentinel(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        grid = execute_matrix(
            small_suite, workload_names=("ammp",), scale=CI, jobs=1,
        )
        merged = merged_telemetry(grid)
        assert merged is EMPTY_SNAPSHOT
        assert merged.is_empty()
        assert not merged

    def test_zero_cell_grid_folds_to_empty_sentinel(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        grid = execute_matrix(
            small_suite, workload_names=(), scale=CI, jobs=1,
        )
        merged = merged_telemetry(grid)
        assert merged is EMPTY_SNAPSHOT
        assert not merged
        # The sentinel is a real snapshot: merging and iterating it is
        # safe without a None guard.
        assert merge_snapshots([merged, merged]).is_empty()
        assert list(merged.trace_records) == []


class TestFormatTelemetrySummary:
    def test_summary_sections(self):
        snapshot = TelemetrySnapshot(
            counters={"warmup.cache_updates": 10,
                      "reconstruct.blocks_applied": 4},
            phase_seconds={"cold_skip": 1.0, "reconstruct": 0.25,
                           "hot_sim": 0.75},
            trace_records=[
                {"type": "cluster", "method": "S$BP", "warm_updates": 6,
                 "log_records": 0, "wall_seconds": 0.5},
                {"type": "cluster", "method": "S$BP", "warm_updates": 4,
                 "log_records": 0, "wall_seconds": 0.5},
            ],
        )
        text = format_telemetry_summary(snapshot)
        assert "cold_skip" in text
        assert "50.0%" in text  # cold_skip share of 2.0s total
        assert "warmup.cache_updates" in text
        assert "S$BP" in text
        assert "10" in text

    def test_empty_snapshot_renders(self):
        text = format_telemetry_summary(TelemetrySnapshot())
        assert "total" in text


class _EmptyRegimen(SamplingRegimen):
    """A regimen whose draw yields no clusters (degenerate edge case)."""

    def cluster_starts(self):
        return []


class TestHarmonicMeanGuard:
    def test_zero_cluster_run_does_not_divide_by_zero(self):
        workload = build_workload("ammp", mem_scale=CI.mem_scale)
        simulator = SampledSimulator(
            workload,
            _EmptyRegimen(total_instructions=10_000, num_clusters=1,
                          cluster_size=100),
            CI.configs(),
        )
        # The harmonic-mean diagnostic must not raise ZeroDivisionError;
        # the run still fails later with the estimator's readable error.
        with pytest.raises(ValueError, match="no clusters"):
            simulator.run(resolve_method("None"))
