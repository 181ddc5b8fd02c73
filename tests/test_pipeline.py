"""Tests for the two-phase execution pipeline (sampling.pipeline).

Covers the dispatcher (cluster-jobs resolution, non-shardable
fallback), the serial/sharded equivalence contract (identical cost
ledger, bounded IPC bias, worker-count invariance, raw == compacted),
the fold's corruption cross-check, telemetry/audit flow through shard
workers, and the harness-side plumbing (map_tasks, shard cache keys).
"""

import dataclasses
import os

import pytest

from repro.core import ReverseStateReconstruction
from repro.harness import SCALES, ExperimentScale, RunOptions, parallel
from repro.harness.options import available_cpus
from repro.harness.parallel import CellSpec, map_tasks
from repro.sampling import (
    CLUSTER_JOBS_ENV_VAR,
    SampledSimulator,
    SamplingRegimen,
    SimulatorConfigs,
    cluster_geometry,
    resolve_cluster_jobs,
)
from repro.telemetry import Telemetry
from repro.warmup import SmartsWarmup
from repro.workloads import build_workload
from tests.oracle_skiplog import SkipRegionLog

REGIMEN = SamplingRegimen(total_instructions=24_000, num_clusters=4,
                          cluster_size=600, seed=7)
PREFIX = 2_000
RAMP = 64


@pytest.fixture(scope="module")
def workload():
    return build_workload("ammp")


def _simulator(workload, **kwargs):
    kwargs.setdefault("warmup_prefix", PREFIX)
    kwargs.setdefault("detail_ramp", RAMP)
    return SampledSimulator(workload, REGIMEN, **kwargs)


@pytest.fixture(scope="module")
def serial_run(workload):
    return _simulator(workload).run(ReverseStateReconstruction(0.3))


@pytest.fixture(scope="module")
def sharded_run(workload):
    return _simulator(workload, cluster_jobs=2).run(
        ReverseStateReconstruction(0.3))


class TestResolveClusterJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(CLUSTER_JOBS_ENV_VAR, raising=False)
        assert resolve_cluster_jobs() == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(CLUSTER_JOBS_ENV_VAR, "7")
        assert resolve_cluster_jobs(3) == 3

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(CLUSTER_JOBS_ENV_VAR, "4")
        assert resolve_cluster_jobs() == 4

    def test_empty_env_is_serial(self, monkeypatch):
        monkeypatch.setenv(CLUSTER_JOBS_ENV_VAR, "  ")
        assert resolve_cluster_jobs() == 1

    def test_zero_means_cpu_count(self):
        assert resolve_cluster_jobs(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            resolve_cluster_jobs(-1)

    def test_garbage_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(CLUSTER_JOBS_ENV_VAR, "many")
        with pytest.raises(ValueError, match=CLUSTER_JOBS_ENV_VAR):
            resolve_cluster_jobs()


class TestOneWorkerPerCpu:
    """``0`` jobs (and matrix jobs ``None``) count the CPUs the process
    may run on, not every CPU of the machine."""

    def test_affinity_counted_everywhere(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert available_cpus() == 1
        assert resolve_cluster_jobs(0) == 1
        monkeypatch.setenv(CLUSTER_JOBS_ENV_VAR, "0")
        assert resolve_cluster_jobs() == 1
        options = RunOptions(scale="ci", matrix_jobs=0, cluster_jobs=0)
        assert options.resolved_matrix_jobs() == 1
        assert options.resolved_cluster_jobs() == 1
        assert RunOptions(scale="ci").resolved_matrix_jobs() == 1

        class Resolved(Exception):
            pass

        def pool(jobs):
            raise Resolved(jobs)

        monkeypatch.setattr(parallel, "ProcessPool", pool)
        with pytest.raises(Resolved) as resolved:
            parallel.execute_matrix(lambda: [], workload_names=("gcc",),
                                    scale=SCALES["ci"])
        assert resolved.value.args == (1,)

    def test_without_affinity_counts_every_cpu(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert available_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert available_cpus() == 1


class TestClusterGeometry:
    def test_ramp_borrows_from_gap(self):
        assert cluster_geometry(0, 1_000, 256) == (256, 744)

    def test_ramp_clamped_to_available_gap(self):
        assert cluster_geometry(900, 1_000, 256) == (100, 0)

    def test_zero_ramp(self):
        assert cluster_geometry(400, 1_000, 0) == (0, 600)

    def test_position_at_start(self):
        assert cluster_geometry(1_000, 1_000, 256) == (0, 0)


class TestShardedEquivalence:
    def test_cluster_count_and_flags(self, sharded_run):
        assert len(sharded_run.cluster_ipcs) == REGIMEN.num_clusters
        assert sharded_run.extra["sharded"] is True
        assert sharded_run.extra["cluster_jobs"] == 2

    def test_serial_run_carries_no_shard_flags(self, serial_run):
        assert "sharded" not in serial_run.extra
        assert "cluster_jobs" not in serial_run.extra

    def test_cost_ledger_identical(self, serial_run, sharded_run):
        """Cold-scan positions and gap logs are bit-identical to the
        serial walk, so every cost component matches exactly."""
        assert sharded_run.cost.as_dict() == serial_run.cost.as_dict()

    def test_ipc_bias_is_bounded(self, serial_run, sharded_run):
        """Shards lack the serial walk's stale microarchitectural
        carry-over, so per-cluster IPCs carry a residual bias.  At this
        deliberately tiny scale (600-instruction clusters, cold 2k
        prefix) the relative residual is large; the quantitative bound
        at benchmark scale is CI's check of BENCH_pr5.json, so this
        test only pins the order of magnitude."""
        for serial_ipc, shard_ipc in zip(serial_run.cluster_ipcs,
                                         sharded_run.cluster_ipcs):
            assert shard_ipc > 0
            assert shard_ipc == pytest.approx(serial_ipc, rel=0.75)
        assert sharded_run.estimate.mean == pytest.approx(
            serial_run.estimate.mean, rel=0.5)

    def test_sharded_run_is_deterministic(self, workload, sharded_run):
        again = _simulator(workload, cluster_jobs=2).run(
            ReverseStateReconstruction(0.3))
        assert again.cluster_ipcs == sharded_run.cluster_ipcs
        assert again.cost.as_dict() == sharded_run.cost.as_dict()

    def test_worker_count_invariance(self, workload, sharded_run):
        """jobs=3 executes the identical two-phase schedule as jobs=2 —
        the property that lets the cache key ignore the worker count."""
        three = _simulator(workload, cluster_jobs=3).run(
            ReverseStateReconstruction(0.3))
        assert three.cluster_ipcs == sharded_run.cluster_ipcs
        assert three.cost.as_dict() == sharded_run.cost.as_dict()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raw_and_compacted_sources_identical(self, workload, jobs):
        """Acceptance: the compacted log and the raw oracle produce
        bit-identical results through the serial path and through
        shards."""
        raw = _simulator(workload, cluster_jobs=jobs).run(
            ReverseStateReconstruction(0.3, source=SkipRegionLog))
        compacted = _simulator(workload, cluster_jobs=jobs).run(
            ReverseStateReconstruction(0.3))
        assert raw.cluster_ipcs == compacted.cluster_ipcs
        assert raw.cost.as_dict() == compacted.cost.as_dict()

    def test_non_shardable_method_falls_back_serial(self, workload,
                                                    capsys):
        method = SmartsWarmup()
        assert method.shardable is False
        sharded_ask = _simulator(workload, cluster_jobs=2).run(method)
        err = capsys.readouterr().err
        assert "cannot be sharded" in err
        assert "S$BP" in err
        serial = _simulator(workload).run(SmartsWarmup())
        assert sharded_ask.cluster_ipcs == serial.cluster_ipcs
        assert "sharded" not in sharded_ask.extra

    def test_fold_rejects_corrupt_instruction_counts(self, workload,
                                                     monkeypatch):
        """The fold cross-checks each shard against the cold scan."""
        from repro.sampling.pipeline import run_shards

        def tampering_map(worker, tasks, jobs, *, on_result, **kwargs):
            results = [run_shards(task) for task in tasks]
            first = results[0][0]
            results[0][0] = dataclasses.replace(
                first, instructions=first.instructions + 1)
            for index, result in enumerate(results):
                on_result(index, result)
            return results

        monkeypatch.setattr("repro.harness.parallel.map_tasks",
                            tampering_map)
        with pytest.raises(RuntimeError, match="corrupt"):
            _simulator(workload, cluster_jobs=2).run(
                ReverseStateReconstruction(0.3))


class TestShardHandOff:
    """Phase B ships one task per worker; results match one task per shard."""

    @pytest.mark.parametrize("jobs, expected", [(2, 2), (3, 3), (8, 4)])
    def test_one_task_per_worker(self, workload, monkeypatch, jobs,
                                 expected):
        from repro.harness import parallel

        original = parallel.map_tasks
        submitted = []

        def recording_map(worker, tasks, jobs, **kwargs):
            submitted.append(list(tasks))
            return original(worker, tasks, jobs, **kwargs)

        monkeypatch.setattr(parallel, "map_tasks", recording_map)
        _simulator(workload, cluster_jobs=jobs).run(
            ReverseStateReconstruction(0.3))
        [tasks] = submitted
        assert len(tasks) == min(jobs, REGIMEN.num_clusters) == expected
        clusters = list(range(REGIMEN.num_clusters))
        for offset, task in enumerate(tasks):
            assert [shard.index for shard in task.shards] == \
                clusters[offset::expected]
            assert task.workload is workload

    @pytest.fixture(scope="class")
    def per_shard_reference(self, workload, tmp_path_factory):
        """The run as one in-process task per shard (the former hand-off
        shape), traced and audited."""
        patch = pytest.MonkeyPatch()
        try:
            _traced_audited(patch, tmp_path_factory.mktemp("cache"))

            def per_shard_map(worker, tasks, jobs, *, on_result,
                              **kwargs):
                results = [worker(dataclasses.replace(task, shards=(shard,)))
                           for task in tasks for shard in task.shards]
                for index, result in enumerate(results):
                    on_result(index, result)
                return results

            patch.setattr("repro.harness.parallel.map_tasks", per_shard_map)
            return _simulator(workload, cluster_jobs=2).run(
                ReverseStateReconstruction(0.3))
        finally:
            patch.undo()

    @pytest.mark.parametrize("pool_jobs", [1, 2])
    def test_batched_results_match_per_shard(self, workload, monkeypatch,
                                             tmp_path, per_shard_reference,
                                             pool_jobs):
        """One task per worker, in process (a one-worker pool) and in a
        process pool, equals one in-process task per shard."""
        from repro.harness.executor import ProcessPool
        from repro.harness.reporting import audit_rows

        _traced_audited(monkeypatch, tmp_path)
        monkeypatch.setattr(parallel, "ProcessPool",
                            lambda jobs: ProcessPool(pool_jobs))
        run = _simulator(workload, cluster_jobs=2).run(
            ReverseStateReconstruction(0.3))
        reference = per_shard_reference
        assert run.cluster_ipcs == reference.cluster_ipcs
        assert run.cost.as_dict() == reference.cost.as_dict()
        assert _untimed_records(run) == _untimed_records(reference)
        assert audit_rows(run.extra["telemetry"]) == \
            audit_rows(reference.extra["telemetry"])
        assert audit_rows(run.extra["telemetry"])


def _traced_audited(monkeypatch, cache_dir):
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_AUDIT", "1")
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(cache_dir))
    monkeypatch.delenv("REPRO_CHECKPOINT_STORE", raising=False)
    monkeypatch.delenv(CLUSTER_JOBS_ENV_VAR, raising=False)


def _untimed_records(run):
    """Trace records minus their wall-clock fields, in emission order."""
    return [{name: value for name, value in record.items()
             if not name.endswith("_seconds")}
            for record in run.extra["telemetry"].trace_records]


class TestShardedTelemetry:
    @pytest.fixture()
    def traced_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        monkeypatch.delenv(CLUSTER_JOBS_ENV_VAR, raising=False)
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "cache"))

    def test_every_cluster_appears_exactly_once(self, workload,
                                                traced_env):
        run = _simulator(workload, cluster_jobs=2).run(
            ReverseStateReconstruction(0.3))
        snapshot = run.extra["telemetry"]
        clusters = [record["cluster"] for record in snapshot.trace_records
                    if "ipc" in record]
        assert sorted(clusters) == list(range(REGIMEN.num_clusters))
        assert snapshot.gauges["run.cluster_jobs"] == 2
        assert snapshot.gauges["run.clusters"] == REGIMEN.num_clusters

    def test_record_fields_match_serial(self, workload, traced_env):
        """Deterministic per-cluster record fields (geometry, cold-scan
        cost shares) are identical between the two strategies."""
        fields = ("start", "gap", "ramp", "instructions",
                  "functional_instructions", "log_records")
        serial = _simulator(workload, telemetry=Telemetry).run(
            ReverseStateReconstruction(0.3))
        sharded = _simulator(workload, cluster_jobs=2).run(
            ReverseStateReconstruction(0.3))

        def rows(run):
            records = [r for r in run.extra["telemetry"].trace_records
                       if "ipc" in r]
            records.sort(key=lambda r: r["cluster"])
            return [tuple(r[name] for name in fields) for r in records]

        def key_sets(run):
            return [set(r) for r in run.extra["telemetry"].trace_records
                    if r["type"] == "cluster"]

        assert rows(sharded) == rows(serial)
        assert key_sets(sharded) == key_sets(serial)

    @pytest.fixture()
    def untraced_env(self, monkeypatch, tmp_path):
        for name in ("REPRO_TRACE", "REPRO_AUDIT", CLUSTER_JOBS_ENV_VAR):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "cache"))

    def test_session_factory_reaches_the_workers(self, workload,
                                                 untraced_env):
        """With no telemetry variable set, a live session passed to the
        simulator still opens live sessions in the shard workers."""
        run = _simulator(workload, cluster_jobs=2, telemetry=Telemetry).run(
            ReverseStateReconstruction(0.3))
        snapshot = run.extra["telemetry"]
        clusters = [record["cluster"] for record in snapshot.trace_records
                    if record["type"] == "cluster"]
        assert clusters == list(range(REGIMEN.num_clusters))
        for name in ("reconstruct", "hot_sim"):
            assert snapshot.phase_seconds[name] > 0.0

    def test_caller_session_holds_the_run_snapshot(self, workload,
                                                   untraced_env):
        """Worker snapshots fold into the run's own session, so the
        caller's session and the returned snapshot agree."""
        session = Telemetry()
        run = _simulator(workload, cluster_jobs=2, telemetry=session).run(
            ReverseStateReconstruction(0.3))
        returned = run.extra["telemetry"]
        mine = session.snapshot()
        assert mine.counters == returned.counters
        assert mine.histograms == returned.histograms
        assert mine.phase_seconds == returned.phase_seconds
        assert mine.trace_records == returned.trace_records
        assert len(returned.trace_records) == REGIMEN.num_clusters

    def test_injected_span_recorder_reaches_the_workers(self, workload,
                                                        untraced_env):
        """Shard workers record spans exactly when the run's session
        does, here through a recorder passed in with REPRO_TRACE unset."""
        from repro.telemetry import SpanRecorder, span_tree_shape

        shapes = []
        for jobs in (1, 2):
            session = Telemetry(spans=SpanRecorder())
            run = _simulator(workload, cluster_jobs=jobs,
                             telemetry=session).run(
                ReverseStateReconstruction(0.3))
            shapes.append(span_tree_shape(run.extra["telemetry"].spans,
                                          collapse=("phase_a", "phase_b")))
        assert shapes[1] == shapes[0]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_phase_seconds_are_summed_span_durations(self, workload,
                                                     untraced_env,
                                                     monkeypatch, jobs):
        """Each cluster record's ``<phase>_seconds`` is exactly the
        summed duration of that cluster's ``<phase>`` spans."""
        monkeypatch.setenv("REPRO_AUDIT", "1")
        run = _simulator(workload, cluster_jobs=jobs,
                         telemetry=Telemetry).run(
            ReverseStateReconstruction(0.3))
        snapshot = run.extra["telemetry"]
        spans = [record for record in snapshot.spans
                 if record["type"] == "span"]
        by_id = {span["id"]: span for span in spans}
        summed: dict = {}
        for span in spans:
            cluster = by_id.get(span["parent"])
            if (span["cat"] != "phase" or cluster is None
                    or not cluster["name"].startswith("cluster ")):
                continue
            # Phase A's cold scan belongs to no cluster record.
            if by_id[cluster["parent"]]["name"] == "phase_a":
                continue
            key = (cluster["args"]["cluster"], span["name"])
            summed[key] = summed.get(key, 0.0) + span["dur"] / 1e9
        records = [record for record in snapshot.trace_records
                   if record["type"] == "cluster"]
        assert len(records) == REGIMEN.num_clusters
        for record in records:
            timed = [name for name in record if name.endswith("_seconds")
                     and name != "wall_seconds"]
            assert "audit_seconds" in timed
            for name in timed:
                phase = name[:-len("_seconds")]
                assert record[name] == summed.get(
                    (record["cluster"], phase), 0.0), (record["cluster"],
                                                       phase)

    def test_phase_timers_cover_both_phases(self, workload, traced_env):
        run = _simulator(workload, cluster_jobs=2).run(
            ReverseStateReconstruction(0.3))
        phases = run.extra["telemetry"].phase_seconds
        for name in ("prefix", "cold_skip", "reconstruct", "hot_sim"):
            assert phases.get(name, 0.0) > 0.0

    def test_audit_probes_ride_into_shards(self, workload, traced_env,
                                           monkeypatch):
        from repro.harness.reporting import audit_rows

        monkeypatch.setenv("REPRO_AUDIT", "1")
        run = _simulator(workload, cluster_jobs=2).run(
            ReverseStateReconstruction(0.3))
        rows = audit_rows(run.extra["telemetry"])
        assert [row["cluster"] for row in rows] == \
            list(range(REGIMEN.num_clusters))
        for row, ipc in zip(rows, run.cluster_ipcs):
            assert row["cold_start_error"] == pytest.approx(
                ipc - row["ref_ipc"])


def _double(value):
    return value * 2


def _call(task):
    return task()


class TestMapTasks:
    def test_parallel_preserves_order(self):
        values = list(range(24))
        assert map_tasks(_double, values, jobs=3) == \
            [value * 2 for value in values]

    def test_serial_when_one_job(self):
        assert map_tasks(_double, [1, 2, 3], jobs=1) == [2, 4, 6]

    def test_unpicklable_tasks_fall_back_in_process(self):
        tasks = [(lambda: 5), (lambda: 9)]
        assert map_tasks(_call, tasks, jobs=4) == [5, 9]

    def test_single_task_runs_in_process(self):
        assert map_tasks(_double, [21], jobs=8) == [42]


class TestShardCacheKeys:
    def _spec(self, cluster_jobs):
        scale = ExperimentScale("tiny-key", total_instructions=24_000,
                                num_clusters=4, cluster_size=600,
                                warmup_prefix=2_000)
        return CellSpec("ammp", "rsr", scale, SimulatorConfigs(),
                        cluster_jobs=cluster_jobs)

    def test_sharded_key_differs_from_serial(self):
        assert self._spec(2).key() != self._spec(1).key()

    def test_key_ignores_worker_count(self):
        assert self._spec(2).key() == self._spec(4).key()
