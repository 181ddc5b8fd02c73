"""Failure-model matrix: one fault at one persistence or CLI boundary.

Each cell damages one boundary in one way and expects one of two
outcomes: the bit-identical result of a run without the fault, or a
one-line ``error:`` diagnostic with exit status 2.

- **Result cache** (`ResultCache`, read through by `execute_request`
  and by the matrix grid's cells): damaged entries (truncated, garbage,
  empty, a valid pickle of the wrong thing, written by other code) and
  failed writes (unwritable root, full disk, a ``gc`` that removes the
  temp file before its rename, a writer killed mid-write).
- **Checkpoint store** (`CheckpointStore`, read through by the sharded
  pipeline): failed writes, a killed writer's temp file, and entries
  written by other functional code.  Damaged store entries have their
  own cells in tests/test_checkpoint_store.py.
- **CLI output paths**: ``--output``, ``--spans``, ``--trace`` and
  ``REPRO_TRACE`` naming a path that cannot be written.
"""

from __future__ import annotations

import errno
import os
import threading

import pytest

from repro.__main__ import main
from repro.api import RunRequest, execute_request
from repro.harness.cache import ResultCache
from repro.store import STORE_ENV_VAR, CheckpointStore
from repro.store import checkpoint as store_module
from repro.store.serialization import atomic_write_pickle, reset_warnings
from tests.test_checkpoint_store import _run, _shard_blob

SAMPLE = RunRequest(kind="sample", workloads=("gcc",), methods=("rsr",),
                    design="ci")
MATRIX = RunRequest(kind="matrix", workloads=("gcc",), methods=("rsr",),
                    design="ci")
UNWRITABLE = "/dev/null/missing"


@pytest.fixture(autouse=True)
def fresh_warnings():
    reset_warnings()


@pytest.fixture(scope="module")
def baseline():
    """Each request's payload with no cache at all."""
    return {request.kind: execute_request(request, cache="off").payload
            for request in (SAMPLE, MATRIX)}


def _droppings(root) -> list:
    return sorted(root.rglob(".tmp-*"))


# ---------------------------------------------------------------------------
# result cache: damaged entries
# ---------------------------------------------------------------------------


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


ENTRY_DAMAGE = {
    "truncated": _truncate,
    "garbage": lambda path: path.write_bytes(b"\x00garbage\xff"),
    "empty": lambda path: path.write_bytes(b""),
    "wrong-value": lambda path: atomic_write_pickle(path, ["not", "rows"]),
    "wrong-kind": lambda path: atomic_write_pickle(
        path, {"kind": "audit", "design": "ci", "reports": {}}),
}


@pytest.mark.parametrize("damage", ENTRY_DAMAGE)
def test_damaged_request_entry_recomputes_identically(damage, baseline,
                                                      tmp_path, capsys):
    cache = ResultCache(tmp_path / "cache")
    execute_request(SAMPLE, cache=cache)
    ENTRY_DAMAGE[damage](cache._path(SAMPLE.cache_key()))
    capsys.readouterr()
    rerun = execute_request(SAMPLE, cache=cache)
    assert not rerun.cached
    assert rerun.payload == baseline["sample"]
    assert "result-cache entry" in capsys.readouterr().err
    repaired = execute_request(SAMPLE, cache=cache)
    assert repaired.cached and repaired.payload == baseline["sample"]


@pytest.mark.parametrize("damage", ("truncated", "wrong-value"))
def test_damaged_grid_cell_entry_recomputes_identically(damage, baseline,
                                                        tmp_path, capsys):
    """The grid's per-cell entries sit under the request entry; with the
    request entry gone, a damaged cell entry is a warned miss."""
    cache = ResultCache(tmp_path / "cache")
    execute_request(MATRIX, cache=cache)
    cache._path(MATRIX.cache_key()).unlink()
    cells = sorted(path for path in cache.root.glob("*/*.pkl"))
    assert len(cells) == 2  # the true run and the one sampled cell
    for path in cells:
        ENTRY_DAMAGE[damage](path)
    capsys.readouterr()
    rerun = execute_request(MATRIX, cache=cache)
    assert not rerun.cached
    assert rerun.payload == baseline["matrix"]
    assert capsys.readouterr().err.count("result-cache entry") == 2


def test_entry_of_other_code_is_not_served(baseline, tmp_path, monkeypatch):
    cache = ResultCache(tmp_path / "cache")
    with monkeypatch.context() as patch:
        patch.setattr("repro.api.code_version", lambda: "0" * 16)
        execute_request(SAMPLE, cache=cache)
    rerun = execute_request(SAMPLE, cache=cache)
    assert not rerun.cached
    assert rerun.payload == baseline["sample"]
    assert cache.entry_count() == 2


# ---------------------------------------------------------------------------
# result cache: failed writes
# ---------------------------------------------------------------------------


def _full_disk(monkeypatch, cache):
    def replace(source, target):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    monkeypatch.setattr(os, "replace", replace)


def _gc_races_put(monkeypatch, cache):
    real_replace = os.replace

    def replace(source, target):
        cache.gc(0)  # removes the temp file the rename is about to move
        real_replace(source, target)
    monkeypatch.setattr(os, "replace", replace)


WRITE_FAULTS = {"full-disk": _full_disk, "gc-races-put": _gc_races_put}


@pytest.mark.parametrize("fault", WRITE_FAULTS)
@pytest.mark.parametrize("request_", (SAMPLE, MATRIX),
                         ids=lambda request: request.kind)
def test_failed_cache_write_keeps_the_result(fault, request_, baseline,
                                             tmp_path, monkeypatch, capsys):
    cache = ResultCache(tmp_path / "cache")
    with monkeypatch.context() as patch:
        WRITE_FAULTS[fault](patch, cache)
        result = execute_request(request_, cache=cache)
    assert not result.cached
    assert result.payload == baseline[request_.kind]
    assert capsys.readouterr().err.count("cannot write result-cache") == 1
    assert cache.entry_count() == 0
    assert _droppings(tmp_path) == []


def test_cache_root_that_is_a_file_keeps_the_result(baseline, tmp_path,
                                                    capsys):
    root = tmp_path / "not-a-directory"
    root.write_text("")
    result = execute_request(MATRIX, cache=ResultCache(root))
    assert result.payload == baseline["matrix"]
    assert "cannot write result-cache" in capsys.readouterr().err


def test_killed_writer_temp_file_is_not_an_entry(baseline, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    execute_request(SAMPLE, cache=cache)
    entry = cache._path(SAMPLE.cache_key())
    dropping = entry.parent / ".tmp-killed.pkl"
    dropping.write_bytes(entry.read_bytes()[:10])
    rerun = execute_request(SAMPLE, cache=cache)
    assert rerun.cached and rerun.payload == baseline["sample"]
    assert cache.entry_count() == 1
    assert cache.total_bytes() == entry.stat().st_size
    cache.gc(0)
    assert not dropping.exists()


def test_concurrent_writers_never_tear_an_entry(tmp_path, capsys):
    cache = ResultCache(tmp_path / "cache")
    key = SAMPLE.cache_key()
    values = [{"writer": index, "rows": [index] * 2000} for index in range(2)]
    reads = []

    def write(value):
        for _ in range(100):
            cache.put(key, value)

    def read():
        for _ in range(200):
            reads.append(cache.get(key))

    threads = [threading.Thread(target=write, args=(value,))
               for value in values] + [threading.Thread(target=read)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(value is None or value in values for value in reads)
    assert cache.get(key) in values
    assert cache.entry_count() == 1
    assert capsys.readouterr().err == ""
    assert _droppings(tmp_path) == []


# ---------------------------------------------------------------------------
# checkpoint store
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def store_workload():
    from repro.workloads import build_workload

    return build_workload("ammp")


@pytest.fixture()
def store_root(monkeypatch, tmp_path):
    root = tmp_path / "checkpoints"
    monkeypatch.setenv(STORE_ENV_VAR, str(root))
    monkeypatch.delenv("REPRO_CLUSTER_JOBS", raising=False)
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    return root


@pytest.fixture(scope="module")
def storeless(store_workload):
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(STORE_ENV_VAR, raising=False)
        patch.delenv("REPRO_CLUSTER_JOBS", raising=False)
        patch.delenv("REPRO_EXECUTOR", raising=False)
        return _run(store_workload)


def _same_run(run, reference):
    assert run.cluster_ipcs == reference.cluster_ipcs
    assert run.cost.as_dict() == reference.cost.as_dict()
    assert run.estimate.mean == reference.estimate.mean


@pytest.mark.parametrize("fault", WRITE_FAULTS)
def test_failed_store_write_keeps_the_result(fault, store_workload,
                                             storeless, store_root,
                                             monkeypatch, capsys):
    with monkeypatch.context() as patch:
        WRITE_FAULTS[fault](patch, CheckpointStore(store_root))
        run = _run(store_workload)
    _same_run(run, storeless)
    assert "failed to persist Phase A shards" in capsys.readouterr().err
    assert _droppings(store_root) == []
    assert _run(store_workload).extra["checkpoint_store"] == "miss"


def test_store_root_that_is_a_file_keeps_the_result(store_workload,
                                                    storeless, store_root,
                                                    capsys):
    store_root.write_text("")
    _same_run(_run(store_workload), storeless)
    assert "failed to persist Phase A shards" in capsys.readouterr().err


def test_killed_writer_temp_file_is_not_a_store_entry(store_workload,
                                                      storeless, store_root):
    _run(store_workload)
    blob = _shard_blob(store_root)
    (blob.parent / ".tmp-killed.pkl").write_bytes(blob.read_bytes()[:10])
    warm = _run(store_workload)
    assert warm.extra["checkpoint_store"] == "hit"
    _same_run(warm, storeless)
    assert CheckpointStore(store_root).entry_count() == 1


def test_store_entry_of_other_functional_code_is_not_served(
        store_workload, storeless, store_root, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(store_module, "functional_code_version",
                      lambda: "0" * 16)
        assert _run(store_workload).extra["checkpoint_store"] == "miss"
    rerun = _run(store_workload)
    assert rerun.extra["checkpoint_store"] == "miss"
    _same_run(rerun, storeless)
    assert CheckpointStore(store_root).entry_count() == 2


# ---------------------------------------------------------------------------
# CLI output paths
# ---------------------------------------------------------------------------

GRID = ["matrix", "--workload", "gcc", "--method", "rsr", "--scale", "ci",
        "--jobs", "1", "--cache", "off", "--quiet"]

UNWRITABLE_OUTPUTS = {
    "matrix-output": (GRID + ["--output", f"{UNWRITABLE}/grid.json"], {}),
    "matrix-spans": (GRID + ["--spans", f"{UNWRITABLE}/spans.jsonl"], {}),
    "sample-trace": (["sample", "gcc", "--method", "rsr", "--scale", "ci",
                      "--trace", f"{UNWRITABLE}/trace.jsonl"], {}),
    "env-trace": (["sample", "gcc", "--method", "rsr", "--scale", "ci"],
                  {"REPRO_TRACE": f"{UNWRITABLE}/trace.jsonl"}),
}


@pytest.mark.parametrize("cell", UNWRITABLE_OUTPUTS)
def test_unwritable_output_path_exits_2(cell, monkeypatch, capsys):
    argv, env = UNWRITABLE_OUTPUTS[cell]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and UNWRITABLE in err
    assert "Traceback" not in err

