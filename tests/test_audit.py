"""Tests for the accuracy-audit subsystem: reference trajectories,
divergence probes, error attribution, and the equivalence guarantees
(compacted log == raw oracle, serial == parallel merges,
S$BP == reference).
"""

import json

import pytest

from repro.analysis import reference_trajectory_for
from repro.core import ReverseStateReconstruction
from repro.harness.experiment import SCALES
from repro.harness.export import audit_to_json, save_audit
from repro.harness.parallel import execute_matrix, merged_telemetry
from repro.harness.reporting import (
    AUDIT_COLUMNS,
    audit_rows,
    audit_summary,
    format_audit_report,
)
from repro.sampling import SampledSimulator
from repro.telemetry import RECORD_AUDIT, Telemetry, audit_enabled
from repro.warmup import SmartsWarmup, resolve_method
from repro.workloads import build_workload
from tests.oracle_skiplog import SOURCES

CI = SCALES["ci"]
METHOD_NAMES = ("S$BP", "R$BP (100%)")


def audit_suite():
    """Picklable module-level method factory (crosses the pool boundary)."""
    return [resolve_method(name) for name in METHOD_NAMES]


def make_simulator(workload_name="ammp", telemetry=Telemetry,
                   cluster_jobs=None):
    workload = build_workload(workload_name, mem_scale=CI.mem_scale)
    return SampledSimulator(
        workload, CI.regimen(), CI.configs(),
        warmup_prefix=CI.warmup_prefix,
        detail_ramp=CI.detail_ramp,
        telemetry=telemetry,
        cluster_jobs=cluster_jobs,
    )


@pytest.fixture
def audit_env(monkeypatch, tmp_path):
    """REPRO_AUDIT on, other switches neutral, cache in tmp."""
    monkeypatch.setenv("REPRO_AUDIT", "1")
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "cache"))
    return tmp_path


def run_audited(method, workload_name="ammp", cluster_jobs=None):
    simulator = make_simulator(workload_name, cluster_jobs=cluster_jobs)
    result = simulator.run(method)
    return result, result.extra["telemetry"]


def audit_records(snapshot):
    return [r for r in snapshot.trace_records
            if r.get("type") == RECORD_AUDIT]


class TestEnvGate:
    def test_audit_enabled_values(self, monkeypatch):
        for off in ("", "0", "off", "false", "no"):
            monkeypatch.setenv("REPRO_AUDIT", off)
            assert not audit_enabled()
        monkeypatch.delenv("REPRO_AUDIT")
        assert not audit_enabled()
        monkeypatch.setenv("REPRO_AUDIT", "1")
        assert audit_enabled()

    def test_audit_off_leaves_no_residue(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        _, snapshot = run_audited(ReverseStateReconstruction(0.2))
        assert audit_records(snapshot) == []
        assert "audit.clusters_probed" not in snapshot.counters
        assert "audit" not in snapshot.phase_seconds

    def test_audit_env_alone_enables_collection(self, audit_env):
        """REPRO_AUDIT without REPRO_TRACE still collects snapshots
        (telemetry_from_env returns a live session)."""
        from repro.telemetry import collection_enabled
        assert collection_enabled()


class TestProbeRecords:
    def test_per_cluster_records_complete(self, audit_env):
        _, snapshot = run_audited(ReverseStateReconstruction(0.2))
        records = audit_records(snapshot)
        assert len(records) == CI.regimen().num_clusters
        for record in records:
            for column in AUDIT_COLUMNS:
                assert column in record, f"missing {column}"
            assert record["cold_start_error"] == pytest.approx(
                record["ipc"] - record["ref_ipc"]
            )
            assert record["sampling_error"] == pytest.approx(
                record["ref_ipc"] - record["true_ipc"]
            )
            # RSR runs an on-demand PHT engine: census must be present.
            assert record["pht_ambiguity_mass"] is not None
            assert record["pht_exact"] >= 0
        assert snapshot.counters["audit.clusters_probed"] == len(records)
        assert "audit" in snapshot.phase_seconds

    def test_smarts_self_consistency(self, audit_env):
        """S$BP audited against the SMARTS reference: perfect agreement,
        exactly zero cold-start error, no census (no on-demand engine)."""
        _, snapshot = run_audited(SmartsWarmup())
        records = audit_records(snapshot)
        assert records
        for record in records:
            assert record["l1i_tag_agreement"] == 1.0
            assert record["l1d_tag_agreement"] == 1.0
            assert record["l2_tag_agreement"] == 1.0
            assert record["l1d_lru_agreement"] == 1.0
            assert record["pht_counter_agreement"] == 1.0
            assert record["ghr_match"] is True
            assert record["btb_agreement"] == 1.0
            assert record["ras_agreement"] == 1.0
            assert record["cold_start_error"] == 0.0
            assert record["pht_ambiguity_mass"] is None

    def test_audit_does_not_perturb_results(self, audit_env, monkeypatch):
        """Probes observe state; they never change the simulation."""
        audited_result, audited = run_audited(
            ReverseStateReconstruction(0.2)
        )
        monkeypatch.setenv("REPRO_AUDIT", "0")
        plain_result, plain = run_audited(ReverseStateReconstruction(0.2))
        assert plain_result.cluster_ipcs == audited_result.cluster_ipcs
        assert plain_result.cost.as_dict() == \
            audited_result.cost.as_dict()
        # Phase timers outside "audit" cover identical work.
        assert set(plain.phase_seconds) | {"audit"} == \
            set(audited.phase_seconds)


class TestSourceEquivalence:
    @pytest.mark.parametrize("fraction,cluster_jobs", [
        pytest.param(1.0, None, id="1.0"),
        pytest.param(0.4, None, id="0.4"),
        pytest.param(1.0, 2, id="1.0-sharded"),
        pytest.param(0.4, 2, id="0.4-sharded"),
    ])
    def test_raw_and_compacted_audits_bit_identical(self, audit_env,
                                                    fraction, cluster_jobs):
        """The compacted log and the raw oracle audit bit-identically,
        serially and with the probes running inside shard workers."""
        texts = {}
        for label, source in SOURCES.items():
            _, snapshot = run_audited(
                ReverseStateReconstruction(fraction=fraction,
                                           source=source),
                cluster_jobs=cluster_jobs,
            )
            texts[label] = audit_to_json(snapshot)
        assert texts["raw"] == texts["compacted"]
        payload = json.loads(texts["raw"])
        assert payload["schema"] == "repro-audit-v1"
        assert len(payload["clusters"]) == CI.regimen().num_clusters


class TestParallelEquivalence:
    def test_serial_and_parallel_audits_bit_identical(self, audit_env):
        serial = execute_matrix(audit_suite, workload_names=("ammp",),
                                scale=CI, jobs=1)
        parallel = execute_matrix(
            audit_suite, workload_names=("ammp",), scale=CI, jobs=2,
        )
        serial_snapshot = merged_telemetry(serial)
        parallel_snapshot = merged_telemetry(parallel)
        assert audit_records(serial_snapshot)
        assert audit_to_json(parallel_snapshot) == \
            audit_to_json(serial_snapshot)
        # The audit counters (deterministic integers) also fold equal.
        audit_counters = {
            name: value
            for name, value in serial_snapshot.counters.items()
            if name.startswith("audit.")
        }
        assert audit_counters
        assert {
            name: value
            for name, value in parallel_snapshot.counters.items()
            if name.startswith("audit.")
        } == audit_counters


class TestReferenceTrajectory:
    def test_trajectory_memo_and_disk_cache(self, audit_env):
        from repro.analysis import audit as audit_module
        workload = build_workload("ammp", mem_scale=CI.mem_scale)
        audit_module._TRAJECTORY_MEMO.clear()
        first = reference_trajectory_for(
            workload, CI.regimen(), CI.configs(),
            warmup_prefix=CI.warmup_prefix, detail_ramp=CI.detail_ramp,
        )
        assert len(first.states) == CI.regimen().num_clusters
        again = reference_trajectory_for(
            workload, CI.regimen(), CI.configs(),
            warmup_prefix=CI.warmup_prefix, detail_ramp=CI.detail_ramp,
        )
        assert again is first
        # A fresh process would miss the memo but hit the disk cache.
        audit_module._TRAJECTORY_MEMO.clear()
        from_disk = reference_trajectory_for(
            workload, CI.regimen(), CI.configs(),
            warmup_prefix=CI.warmup_prefix, detail_ramp=CI.detail_ramp,
        )
        assert from_disk == first

    def test_states_are_ordered_and_start_aligned(self, audit_env):
        workload = build_workload("ammp", mem_scale=CI.mem_scale)
        trajectory = reference_trajectory_for(
            workload, CI.regimen(), CI.configs(),
            warmup_prefix=CI.warmup_prefix, detail_ramp=CI.detail_ramp,
        )
        starts = list(CI.regimen().cluster_starts())
        assert [s.start for s in trajectory.states] == starts
        assert [s.cluster_index for s in trajectory.states] == \
            list(range(len(starts)))


class TestReporting:
    def test_rows_project_and_sort(self, audit_env):
        _, snapshot = run_audited(ReverseStateReconstruction(0.2))
        rows = audit_rows(snapshot)
        assert rows
        for row in rows:
            assert tuple(row) == AUDIT_COLUMNS
        clusters = [row["cluster"] for row in rows]
        assert clusters == sorted(clusters)

    def test_summary_attribution_telescopes(self, audit_env):
        result, snapshot = run_audited(ReverseStateReconstruction(0.2))
        summary = audit_summary(snapshot)[0]
        assert summary["workload"] == "ammp"
        assert summary["method"] == "R$BP (20%)"
        # cold-start bias + sampling bias == estimate - truth.
        assert summary["cold_start_bias"] + summary["sampling_bias"] == \
            pytest.approx(summary["mean_ipc"] - summary["true_ipc"])
        assert summary["mean_ipc"] == pytest.approx(result.estimate.mean)

    def test_format_audit_report_sections(self, audit_env):
        _, snapshot = run_audited(ReverseStateReconstruction(0.2))
        text = format_audit_report(snapshot, title="audit check")
        assert "audit check" in text
        assert "cold err" in text
        assert "error attribution per method" in text

    def test_format_audit_report_empty(self):
        from repro.telemetry import EMPTY_SNAPSHOT
        assert format_audit_report(EMPTY_SNAPSHOT) == ""

    def test_save_audit_round_trips(self, audit_env, tmp_path):
        _, snapshot = run_audited(ReverseStateReconstruction(0.2))
        path = tmp_path / "audit.json"
        save_audit(snapshot, path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-audit-v1"
        assert payload["summary"][0]["clusters"] == \
            CI.regimen().num_clusters
