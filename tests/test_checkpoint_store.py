"""Tests for the Phase A checkpoint store (repro.store).

Covers the store engine itself (atomic serialization helpers, key
discipline, manifest cross-checks, gc), the pipeline's read-through
integration (cold vs warm bit-identity for IPCs, the full WarmupCost
ledger, per-cluster gap logs, and audit output), corruption degradation (truncated blob, tampered manifest,
geometry-tampered shards all re-scan with identical results), the
streaming fold's ordering guarantees (adversarial completion order,
duplicate deliveries), and the options/CLI/livepoints plumbing around
it.
"""

import dataclasses
import json
import os
import pickle

import pytest

from repro.core import ReverseStateReconstruction
from repro.harness import parallel
from repro.sampling import SampledSimulator, SamplingRegimen, SimulatorConfigs
from repro.store import (
    LAYERS,
    PHASE_A_PACKAGES,
    STORE_ENV_VAR,
    CheckpointStore,
    code_version,
    default_store_dir,
    global_store_stats,
    livepoint_store_key,
    resolve_store,
    shard_store_key,
)
from repro.store.checkpoint import TEMP_FILE_GRACE_S
from repro.store.serialization import (
    atomic_write_bytes,
    atomic_write_json,
    blob_digest,
    digest_key,
    read_json,
    reset_warnings,
    warn_once,
)
from repro.warmup import SmartsWarmup
from repro.warmup.base import WarmupMethod
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


def _run(workload, **kwargs):
    return _simulator(workload, cluster_jobs=2).run(
        ReverseStateReconstruction(0.3, **kwargs))


def _shard_blob(root):
    blobs = list(root.glob("shards/*/*.pkl"))
    assert len(blobs) == 1, blobs
    return blobs[0]


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


class TestSerializationHelpers:
    def test_atomic_write_bytes_round_trip(self, tmp_path):
        path = tmp_path / "deep" / "entry.pkl"
        assert atomic_write_bytes(path, b"payload") == 7
        assert path.read_bytes() == b"payload"
        # No temp-file droppings survive a successful write.
        assert [p.name for p in path.parent.iterdir()] == ["entry.pkl"]

    def test_atomic_write_json_round_trip(self, tmp_path):
        path = tmp_path / "manifest.json"
        atomic_write_json(path, {"b": 2, "a": 1})
        assert read_json(path) == {"a": 1, "b": 2}

    def test_read_json_non_mapping_is_none(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert read_json(path) is None

    def test_warn_once_registry_and_reset(self, capsys):
        reset_warnings()
        assert warn_once("cat", "key", "message one") is True
        assert warn_once("cat", "key", "message two") is False
        reset_warnings()
        assert warn_once("cat", "key", "message three") is True
        err = capsys.readouterr().err
        assert "message one" in err and "message three" in err
        assert "message two" not in err

    def test_digest_key_is_order_independent(self):
        assert digest_key({"a": 1, "b": [2, 3]}) == \
            digest_key({"b": [2, 3], "a": 1})
        assert digest_key({"a": 1}) != digest_key({"a": 2})


# ---------------------------------------------------------------------------
# key discipline
# ---------------------------------------------------------------------------


class TestStoreKeys:
    def _identity(self):
        return ReverseStateReconstruction(0.3).store_identity()

    def _key(self, workload, configs=None, **overrides):
        kwargs = {"warmup_prefix": PREFIX, "detail_ramp": RAMP,
                  "method_identity": self._identity()}
        kwargs.update(overrides)
        return shard_store_key(workload, REGIMEN,
                               configs or SimulatorConfigs(), **kwargs)

    def test_core_config_is_absent_from_the_key(self, workload):
        """Phase A is timing-independent: core-parameter sweeps must hit."""
        base = SimulatorConfigs()
        swept = dataclasses.replace(
            base, core=dataclasses.replace(
                base.core, rob_entries=base.core.rob_entries * 2))
        assert self._key(workload, base) == self._key(workload, swept)

    def test_sampling_geometry_changes_the_key(self, workload):
        base = self._key(workload)
        assert self._key(workload, warmup_prefix=PREFIX + 1) != base
        assert self._key(workload, detail_ramp=RAMP + 1) != base

    def test_method_identity_changes_the_key(self, workload):
        identity = self._identity()
        other = dict(identity, fraction=identity["fraction"] / 2)
        assert self._key(workload, method_identity=other) != \
            self._key(workload)

    def test_livepoint_key_differs_from_shard_key(self, workload):
        livepoint = livepoint_store_key(
            workload, REGIMEN, SimulatorConfigs(), warmup_prefix=PREFIX,
            detail_ramp=0, method_identity={"method": "SmartsWarmup"})
        assert livepoint != self._key(workload)

    def test_livepoint_key_holds_the_ramp(self, workload):
        keys = {
            livepoint_store_key(
                workload, REGIMEN, SimulatorConfigs(), warmup_prefix=PREFIX,
                detail_ramp=ramp,
                method_identity={"method": "SmartsWarmup"})
            for ramp in (0, 256)
        }
        assert len(keys) == 2

    def test_code_version_shape(self):
        for packages in (None, PHASE_A_PACKAGES):
            version = code_version(packages)
            assert len(version) == 16
            int(version, 16)  # hex digest prefix
        # The whole package covers more source than Phase A executes.
        assert code_version() != code_version(PHASE_A_PACKAGES)

    def test_base_method_is_not_storable(self):
        assert WarmupMethod().store_identity() is None
        assert SmartsWarmup().store_identity() is None

    def test_callable_source_is_not_storable(self):
        method = ReverseStateReconstruction(0.3, source=SkipRegionLog)
        assert method.store_identity() is None


# ---------------------------------------------------------------------------
# the store engine
# ---------------------------------------------------------------------------


class TestCheckpointStore:
    @pytest.fixture()
    def store(self, tmp_path):
        reset_warnings()
        return CheckpointStore(tmp_path / "store")

    def test_round_trip_with_expect(self, store):
        key = "ab" + "0" * 62
        store.put(key, {"value": 7}, "shards", meta={"clusters": 4})
        value = store.get(key, "shards", expect={"clusters": 4})
        assert value == {"value": 7}
        assert store.stats.hits == 1
        assert store.stats.writes == 1
        assert store.stats.bytes_read > 0

    def test_missing_entry_is_a_silent_miss(self, store, capsys):
        assert store.get("cd" + "0" * 62, "shards") is None
        assert store.stats.misses == 1
        assert store.stats.corrupt == 0
        assert capsys.readouterr().err == ""

    def test_expect_mismatch_degrades_to_miss(self, store, capsys):
        key = "ab" + "0" * 62
        store.put(key, [1, 2], "shards", meta={"clusters": 4})
        assert store.get(key, "shards", expect={"clusters": 5}) is None
        assert store.stats.corrupt == 1
        assert "expected 5" in capsys.readouterr().err

    def test_truncated_blob_degrades_to_miss(self, store, capsys):
        key = "ab" + "0" * 62
        store.put(key, list(range(100)), "shards")
        blob = store._blob_path(key, "shards")
        blob.write_bytes(blob.read_bytes()[:10])
        assert store.get(key, "shards") is None
        assert store.stats.corrupt == 1
        assert "digest mismatch" in capsys.readouterr().err

    def test_missing_manifest_degrades_to_miss(self, store):
        key = "ab" + "0" * 62
        store.put(key, "value", "shards")
        store._manifest_path(key, "shards").unlink()
        assert store.get(key, "shards") is None
        assert store.stats.corrupt == 1

    def test_validate_accepts_or_degrades_to_miss(self, store, capsys):
        key = "ab" + "0" * 62
        store.put(key, [1, 2], "shards")
        assert store.get(key, "shards", validate=lambda value: None) == [1, 2]
        assert store.stats.hits == 1
        assert store.get(key, "shards",
                         validate=lambda value: "wrong shape") is None
        assert store.stats.hits == 1
        assert store.stats.corrupt == 1
        assert "wrong shape" in capsys.readouterr().err

    def test_unpicklable_blob_with_valid_digest_degrades(self, store):
        key = "ab" + "0" * 62
        blob = b"not a pickle at all"
        atomic_write_bytes(store._blob_path(key, "shards"), blob)
        atomic_write_json(store._manifest_path(key, "shards"),
                          {"digest": blob_digest(blob)})
        assert store.get(key, "shards") is None
        assert store.stats.corrupt == 1

    def test_provenance_recorded_under_run_id(self, store, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_ID", "prov-test")
        store.put("ab" + "0" * 62, "value", "shards", meta={"clusters": 4})
        lines = (store.root / "runs" / "prov-test.jsonl").read_text()
        entry = json.loads(lines.strip())
        assert entry["run_id"] == "prov-test"
        assert entry["clusters"] == 4
        assert entry["kind"] == "shards"

    def test_result_puts_record_no_provenance(self, store, monkeypatch):
        """Only Phase A kinds record provenance: nothing removes those
        files, and a result is written once per run."""
        monkeypatch.setenv("REPRO_RUN_ID", "results-only")
        store.put("ab" + "0" * 62, "value", "results")
        assert not (store.root / "runs").exists()
        store.put("cd" + "0" * 62, "value", "shards")
        assert (store.root / "runs" / "results-only.jsonl").exists()

    def test_no_provenance_without_run_id(self, store, monkeypatch):
        monkeypatch.delenv("REPRO_RUN_ID", raising=False)
        store.put("ab" + "0" * 62, "value", "shards")
        assert not (store.root / "runs").exists()

    def test_gc_leaves_provenance_and_pairs_manifests(self, store,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_RUN_ID", "gc-test")
        for index in range(3):
            store.put(f"{index:02x}" + "0" * 62, list(range(50)), "shards")
        assert store.entry_count() == 3
        removed = store.gc(0)
        assert len(removed) == 3
        assert store.entry_count() == 0
        assert not list(store.root.glob("shards/*/*.json"))
        # Run provenance survives eviction, and is not an entry's bytes.
        assert (store.root / "runs" / "gc-test.jsonl").exists()
        assert store.total_bytes() == 0

    def test_gc_negative_budget_rejected(self, store):
        with pytest.raises(ValueError, match=">= 0"):
            store.gc(-1)

    def test_gc_removes_oldest_first(self, store):
        for index, age in enumerate((100, 50, 10)):
            store.put(f"{index:02x}" + "0" * 62, b"x" * 10, "shards")
            stamp = 1_000_000 - age
            os.utime(store._blob_path(f"{index:02x}" + "0" * 62, "shards"),
                     (stamp, stamp))
        size = store.total_bytes() // 3
        removed = store.gc(2 * size)
        assert [path.stem[:2] for path in removed] == ["00"]
        assert store.entry_count() == 2

    def test_corrupt_entry_warns_once(self, store, capsys):
        key = "ab" + "0" * 62
        store.put(key, list(range(100)), "shards")
        store._blob_path(key, "shards").write_bytes(b"garbage")
        for _ in range(2):
            assert store.get(key, "shards") is None
        assert store.stats.corrupt == 2
        assert capsys.readouterr().err.count("treated as a miss") == 1

    def test_gc_spares_a_young_temp_file_and_removes_an_orphan(self, store):
        key = "ab" + "0" * 62
        store.put(key, "value", "shards")
        directory = store._blob_path(key, "shards").parent
        young = directory / ".tmp-inflight.pkl"
        orphan = directory / ".tmp-killed.pkl"
        young.write_bytes(b"partial")
        orphan.write_bytes(b"partial")
        stamp = orphan.stat().st_mtime - TEMP_FILE_GRACE_S - 1
        os.utime(orphan, (stamp, stamp))
        assert store.entry_count() == 1
        assert store.total_bytes() == store._blob_path(
            key, "shards").stat().st_size
        assert len(store.gc(0)) == 1
        assert young.exists() and not orphan.exists()

    def test_root_that_is_a_file_warns_once(self, tmp_path, capsys):
        reset_warnings()
        root = tmp_path / "not-a-directory"
        root.write_text("")
        store = CheckpointStore(root)
        for index in range(3):
            assert store.get(f"{index:02x}" + "0" * 62, "shards") is None
        assert store.stats.misses == 3 and store.stats.corrupt == 0
        assert capsys.readouterr().err.count("is not a directory") == 1
        assert store.put("ab" + "0" * 62, "value", "shards") == 0
        assert store.put("cd" + "0" * 62, "value", "shards") == 0
        assert capsys.readouterr().err.count("cannot write") == 1

    def test_layers_share_a_root_without_mixing(self, store):
        """Results and checkpoints in one root: each layer's accounting
        and eviction see only its own kinds, and only checkpoint
        traffic reaches the process-wide totals."""
        results = LAYERS["results"][1]
        checkpoints = LAYERS["checkpoints"][1]
        before = global_store_stats().as_dict()
        store.put("ab" + "0" * 62, "result", "results")
        assert store.get("ab" + "0" * 62, "results") == "result"
        assert global_store_stats().as_dict() == before
        store.put("cd" + "0" * 62, "shards", "shards")
        assert global_store_stats().writes == before["writes"] + 1
        assert store.entry_count(results) == 1
        assert store.entry_count(checkpoints) == 1
        assert store.entry_count() == 2
        assert len(store.gc(0, results)) == 1
        assert store.entry_count(checkpoints) == 1
        assert store.get("cd" + "0" * 62, "shards") == "shards"

    def test_contains_and_clear(self, store):
        key = "ab" + "0" * 62
        assert key not in store
        store.put(key, "value", "shards")
        assert key in store
        assert store.clear() == 1
        assert key not in store

    def test_resolve_store_spellings(self, monkeypatch, tmp_path):
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        assert resolve_store() is None
        assert resolve_store("off") is None
        assert resolve_store("0") is None
        assert resolve_store("on").root == default_store_dir()
        assert resolve_store(str(tmp_path)).root == tmp_path
        assert resolve_store(None, default="on").root == default_store_dir()
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path))
        assert resolve_store().root == tmp_path
        monkeypatch.setenv(STORE_ENV_VAR, "off")
        assert resolve_store() is None
        existing = CheckpointStore(tmp_path)
        assert resolve_store(existing) is existing


# ---------------------------------------------------------------------------
# pipeline read-through: cold vs warm bit-identity
# ---------------------------------------------------------------------------


class TestReadThrough:
    @pytest.fixture()
    def store_env(self, monkeypatch, tmp_path):
        root = tmp_path / "checkpoints"
        monkeypatch.setenv(STORE_ENV_VAR, str(root))
        monkeypatch.delenv("REPRO_CLUSTER_JOBS", raising=False)
        reset_warnings()
        return root

    def test_cold_run_misses_then_populates(self, workload, store_env):
        run = _run(workload)
        assert run.extra["checkpoint_store"] == "miss"
        blob = _shard_blob(store_env)
        manifest = read_json(blob.with_suffix(".json"))
        assert manifest["workload"] == "ammp"
        assert manifest["clusters"] == REGIMEN.num_clusters
        assert manifest["warmup_prefix"] == PREFIX
        assert manifest["detail_ramp"] == RAMP
        assert manifest["digest"] == blob_digest(blob.read_bytes())

    def test_warm_run_bit_identical(self, workload, store_env):
        """Acceptance: a store hit reproduces the cold run exactly —
        per-cluster IPCs, the estimate, and every WarmupCost component
        (the stored shards replay their cold-scan gap-log deltas)."""
        cold = _run(workload)
        warm = _run(workload)
        assert cold.extra["checkpoint_store"] == "miss"
        assert warm.extra["checkpoint_store"] == "hit"
        assert warm.cluster_ipcs == cold.cluster_ipcs
        assert warm.cost.as_dict() == cold.cost.as_dict()
        assert warm.estimate.mean == cold.estimate.mean
        assert warm.estimate.error_bound == cold.estimate.error_bound

    def test_warm_run_matches_serial_cost_ledger(self, workload, store_env):
        """The serial == sharded cost contract survives the store: a
        warm sharded run carries the identical ledger a serial walk
        (which never consults the store) produces."""
        _run(workload)  # populate
        warm = _run(workload)
        serial = _simulator(workload).run(ReverseStateReconstruction(0.3))
        assert warm.extra["checkpoint_store"] == "hit"
        assert warm.cost.as_dict() == serial.cost.as_dict()

    def test_gap_logs_and_audit_identical(self, workload, store_env,
                                          monkeypatch, tmp_path):
        """Per-cluster trace records (geometry + gap-log cost shares) and
        the audit JSON rows are bit-identical between cold and warm."""
        from repro.harness.reporting import audit_rows

        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_AUDIT", "1")
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "cache"))
        fields = ("start", "gap", "ramp", "instructions",
                  "functional_instructions", "log_records")

        def rows(run):
            records = [r for r in run.extra["telemetry"].trace_records
                       if "gap" in r]
            records.sort(key=lambda r: r["cluster"])
            return [tuple(r[name] for name in fields) for r in records]

        cold = _run(workload)
        warm = _run(workload)
        assert warm.extra["checkpoint_store"] == "hit"
        assert rows(warm) == rows(cold)
        assert audit_rows(warm.extra["telemetry"]) == \
            audit_rows(cold.extra["telemetry"])

    def test_core_parameter_sweep_hits(self, workload, store_env):
        """The whole point: varying only the core config reuses the
        stored Phase A scan."""
        _run(workload)  # populate under the default core
        base = SimulatorConfigs()
        swept = dataclasses.replace(
            base, core=dataclasses.replace(
                base.core, rob_entries=base.core.rob_entries * 2))
        warm = _simulator(workload, cluster_jobs=2, configs=swept).run(
            ReverseStateReconstruction(0.3))
        assert warm.extra["checkpoint_store"] == "hit"
        assert len(warm.cluster_ipcs) == REGIMEN.num_clusters

    def test_unstorable_method_bypasses_the_store(self, workload,
                                                  store_env):
        """A source factory has no stable identity, so the run executes
        store-less even with the environment configured."""
        run = _run(workload, source=SkipRegionLog)
        assert "checkpoint_store" not in run.extra
        assert not list(store_env.glob("shards/*/*.pkl"))

    def test_no_store_env_means_no_store_flag(self, workload, monkeypatch):
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        run = _run(workload)
        assert "checkpoint_store" not in run.extra


# ---------------------------------------------------------------------------
# corruption degrades to a re-scan
# ---------------------------------------------------------------------------


class TestCorruptionDegrades:
    @pytest.fixture()
    def populated(self, workload, monkeypatch, tmp_path):
        root = tmp_path / "checkpoints"
        monkeypatch.setenv(STORE_ENV_VAR, str(root))
        monkeypatch.delenv("REPRO_CLUSTER_JOBS", raising=False)
        reset_warnings()
        cold = _run(workload)
        assert cold.extra["checkpoint_store"] == "miss"
        return root, cold

    def _assert_degrades(self, workload, cold, capsys):
        before = global_store_stats().as_dict()
        warm = _run(workload)
        after = global_store_stats().as_dict()
        assert warm.extra["checkpoint_store"] == "miss"
        assert warm.cluster_ipcs == cold.cluster_ipcs
        assert warm.cost.as_dict() == cold.cost.as_dict()
        assert after["corrupt"] - before["corrupt"] == 1
        assert after["hits"] - before["hits"] == 0
        assert after["misses"] - before["misses"] == 1
        err = capsys.readouterr().err
        assert err.count("corrupt checkpoint-store entry") == 1
        return err

    @staticmethod
    def _rewrite_shards(root, edit):
        """Replace the stored shard list with ``edit(shards)`` and
        re-seal the manifest, so every byte-level cross-check passes."""
        blob_path = _shard_blob(root)
        shards = edit(pickle.loads(blob_path.read_bytes()))
        blob = pickle.dumps(shards, protocol=pickle.HIGHEST_PROTOCOL)
        atomic_write_bytes(blob_path, blob)
        manifest_path = blob_path.with_suffix(".json")
        manifest = read_json(manifest_path)
        manifest["digest"] = blob_digest(blob)
        manifest["bytes"] = len(blob)
        atomic_write_json(manifest_path, manifest)

    def test_truncated_blob_rescans_identically(self, workload, populated,
                                                capsys):
        root, cold = populated
        blob = _shard_blob(root)
        blob.write_bytes(blob.read_bytes()[:32])
        self._assert_degrades(workload, cold, capsys)
        # The re-scan re-captured a valid entry: the next run hits again.
        assert _run(workload).extra["checkpoint_store"] == "hit"

    def test_tampered_manifest_rescans_identically(self, workload,
                                                   populated, capsys):
        root, cold = populated
        manifest_path = _shard_blob(root).with_suffix(".json")
        manifest = read_json(manifest_path)
        manifest["clusters"] = manifest["clusters"] + 1
        atomic_write_json(manifest_path, manifest)
        self._assert_degrades(workload, cold, capsys)

    def test_geometry_tampered_shards_rescan_identically(self, workload,
                                                         populated,
                                                         capsys):
        """A blob that passes every manifest cross-check but whose shard
        geometry disagrees with the regimen walk is caught by the
        validation pass, demoted from a hit, and re-scanned."""
        root, cold = populated

        def shift_gap(shards):
            shards[0] = dataclasses.replace(shards[0], gap=shards[0].gap + 1)
            return shards

        self._rewrite_shards(root, shift_gap)
        self._assert_degrades(workload, cold, capsys)

    def test_mismatched_checkpoint_base_rescans_identically(
            self, workload, populated, capsys):
        """A checkpoint taken against a base image of another size can
        only come from another workload image: the store's validation
        rejects it before the hit is counted."""
        root, cold = populated

        def rebase(shards):
            last = shards[-1]
            checkpoint = dataclasses.replace(
                last.checkpoint, base_words=last.checkpoint.base_words + 1)
            shards[-1] = dataclasses.replace(last, checkpoint=checkpoint)
            return shards

        self._rewrite_shards(root, rebase)
        err = self._assert_degrades(workload, cold, capsys)
        assert "base image" in err


# ---------------------------------------------------------------------------
# streaming fold ordering guarantees
# ---------------------------------------------------------------------------


def _reverse_order_map(worker, tasks, jobs, *, on_result, **kwargs):
    """Adversarial fan-out: deliveries arrive in *reverse* task order."""
    results = [worker(task) for task in tasks]
    for index in reversed(range(len(results))):
        on_result(index, results[index])
    return results


def _stuttering_map(worker, tasks, jobs, *, on_result, **kwargs):
    """Adversarial fan-out: every completion is delivered twice."""
    results = [worker(task) for task in tasks]
    for index, result in enumerate(results):
        on_result(index, result)
        on_result(index, result)
    return results


class TestStreamingFold:
    @pytest.fixture(scope="class")
    def baseline(self, workload):
        return _simulator(workload, cluster_jobs=2).run(
            ReverseStateReconstruction(0.3))

    def _run_with(self, workload, monkeypatch, fake_map):
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        monkeypatch.setattr(parallel, "map_tasks", fake_map)
        return _simulator(workload, cluster_jobs=2).run(
            ReverseStateReconstruction(0.3))

    def test_reverse_completion_order_is_bit_identical(
            self, workload, baseline, monkeypatch):
        """The pending-heap holds out-of-order completions until their
        turn; last-cluster-first delivery folds identically."""
        run = self._run_with(workload, monkeypatch, _reverse_order_map)
        assert run.cluster_ipcs == baseline.cluster_ipcs
        assert run.cost.as_dict() == baseline.cost.as_dict()

    def test_duplicate_deliveries_fold_once(
            self, workload, baseline, monkeypatch):
        """Each cluster folds exactly once even when the fan-out streams
        it twice."""
        run = self._run_with(workload, monkeypatch, _stuttering_map)
        assert run.cluster_ipcs == baseline.cluster_ipcs
        assert run.cost.as_dict() == baseline.cost.as_dict()

    def test_streaming_equals_barrier_with_store(self, workload,
                                                 monkeypatch, tmp_path):
        """Cross product: adversarial delivery on a warm store hit still
        folds bit-identically to the plain cold run."""
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "store"))
        cold = _run(workload)
        monkeypatch.setattr(parallel, "map_tasks", _reverse_order_map)
        warm = _run(workload)
        assert warm.extra["checkpoint_store"] == "hit"
        assert warm.cluster_ipcs == cold.cluster_ipcs
        assert warm.cost.as_dict() == cold.cost.as_dict()


# ---------------------------------------------------------------------------
# options + CLI plumbing
# ---------------------------------------------------------------------------


class TestOptionsPlumbing:
    def test_from_env_reads_the_variable(self, monkeypatch, tmp_path):
        from repro.harness.options import RunOptions

        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path))
        options = RunOptions.from_env()
        assert options.checkpoint_store == str(tmp_path)
        assert options.store().root == tmp_path

    def test_environ_round_trip_and_apply(self, monkeypatch, tmp_path):
        from repro.harness.options import RunOptions

        monkeypatch.setenv(STORE_ENV_VAR, "stale-parent-value")
        options = RunOptions(checkpoint_store=str(tmp_path))
        assert options.environ()[STORE_ENV_VAR] == str(tmp_path)
        with options.apply():
            assert os.environ[STORE_ENV_VAR] == str(tmp_path)
        assert os.environ[STORE_ENV_VAR] == "stale-parent-value"

    def test_apply_removes_unset_store(self, monkeypatch):
        from repro.harness.options import RunOptions

        monkeypatch.setenv(STORE_ENV_VAR, "leaky")
        with RunOptions().apply():
            assert STORE_ENV_VAR not in os.environ
        assert os.environ[STORE_ENV_VAR] == "leaky"

    def test_store_off_resolves_to_none(self):
        from repro.harness.options import RunOptions

        assert RunOptions(checkpoint_store="off").store() is None


class TestCacheCLI:
    @pytest.fixture()
    def cli_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "results"))
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "checkpoints"))
        return tmp_path

    def test_cache_requires_an_action(self):
        from repro.__main__ import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])

    def test_stats_lists_both_layers(self, cli_env, capsys):
        from repro.__main__ import main

        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "results" in out and "checkpoints" in out
        assert str(cli_env / "checkpoints") in out

    def test_stats_with_cache_off_lists_store_only(self, cli_env, capsys):
        from repro.__main__ import main

        assert main(["cache", "stats", "--cache", "off"]) == 0
        out = capsys.readouterr().out
        assert "checkpoints" in out
        assert str(cli_env / "results") not in out

    def test_gc_negative_budget_exits_2(self, cli_env, capsys):
        from repro.__main__ import main

        assert main(["cache", "gc", "--max-bytes", "-5"]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_gc_all_layers_disabled_exits_2(self, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        assert main(["cache", "gc", "--max-bytes", "0",
                     "--layer", "checkpoints", "--cache", "off",
                     "--store", "off"]) == 2
        assert "disabled" in capsys.readouterr().err

    def test_gc_evicts_store_entries(self, cli_env, capsys):
        from repro.__main__ import main

        store = CheckpointStore(cli_env / "checkpoints")
        store.put("ab" + "0" * 62, list(range(100)), "shards")
        assert main(["cache", "gc", "--max-bytes", "0",
                     "--layer", "checkpoints"]) == 0
        out = capsys.readouterr().out
        assert "checkpoints: evicted 1 of 1" in out
        assert store.entry_count() == 0

    def test_sample_store_flag_populates_the_store(self, monkeypatch,
                                                   tmp_path, capsys):
        from repro.__main__ import main

        root = tmp_path / "flag-store"
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        monkeypatch.setenv("REPRO_CLUSTER_JOBS", "2")
        assert main(["sample", "ammp", "--method", "rsr",
                     "--store", str(root)]) == 0
        assert len(list(root.glob("shards/*/*.pkl"))) == 1
        # The flag's reach is scoped to the run: the environment is
        # restored afterwards.
        assert STORE_ENV_VAR not in os.environ


# ---------------------------------------------------------------------------
# live-points envelope + store integration
# ---------------------------------------------------------------------------


class TestLivePointsStore:
    @pytest.fixture(scope="class")
    def library(self, workload):
        from repro.livepoints import LivePointLibrary

        return LivePointLibrary.generate(workload, REGIMEN,
                                         warmup_prefix=PREFIX)

    def test_store_round_trip(self, library, tmp_path):
        from repro.livepoints import LivePointLibrary

        store = CheckpointStore(tmp_path / "store")
        key = library.store_in(store, warmup_prefix=PREFIX)
        assert key == library.store_key(warmup_prefix=PREFIX)
        loaded = LivePointLibrary.from_store(store, key)
        assert loaded is not None
        assert len(loaded) == len(library)
        replay = loaded.replay()
        assert len(replay.cluster_ipcs) == REGIMEN.num_clusters
        assert replay.cluster_ipcs == library.replay().cluster_ipcs

    def test_from_store_miss_and_wrong_kind(self, library, tmp_path):
        from repro.livepoints import LivePointLibrary

        store = CheckpointStore(tmp_path / "store")
        key = library.store_key(warmup_prefix=PREFIX)
        assert LivePointLibrary.from_store(store, key) is None
        store.put(key, {"not": "a library"}, kind="livepoints")
        assert LivePointLibrary.from_store(store, key) is None
