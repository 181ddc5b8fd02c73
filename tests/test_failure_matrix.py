"""Failure-model matrix: one fault at one persistence or CLI boundary.

Each cell damages one boundary in one way and expects one of two
outcomes: the bit-identical result of a run without the fault, or a
one-line ``error:`` diagnostic with exit status 2.

- **Result cache** (the ``results`` kind of `CheckpointStore`, read
  through by `execute_request`, the matrix grid's cells and the audit
  reference): damaged entries (truncated, garbage or empty blob, a
  damaged manifest, a well-formed entry of the wrong value, written by
  other code) and failed writes (unwritable root, full disk, a temp
  file that vanishes before its rename, a ``gc`` during a put, a writer
  killed mid-write).
- **Checkpoint store** (the ``shards`` kind, read through by the sharded
  pipeline): failed writes, a killed writer's temp file, and entries
  written by other functional code.  Damaged store entries have their
  own cells in tests/test_checkpoint_store.py.
- **Pool workers**: a Phase B or grid pool worker that dies in the
  middle of its task, and one whose task raises.
- **Service result requests** held by ``GET /results/<id>?wait=``: a
  client that disconnects during the hold, a job that raises while a
  reader is held, and a service stopped while a request is held.
- **CLI output paths**: ``--output``, ``--trace`` and ``REPRO_TRACE``
  naming a path that cannot be written; an unwritable grid ``--output``
  fails before any cell runs, and so does a retired recording switch.
"""

from __future__ import annotations

import errno
import functools
import multiprocessing
import os
import socket
import socketserver
import struct
import threading
import time

import pytest

from repro.__main__ import main
from repro.api import RunRequest, execute_request, simulate
from repro.harness import ResultCache, parallel
from repro.harness.options import RunOptions
from repro.sampling import pipeline
from repro.service import ServiceClient, ServiceError, SimulationService
from repro.service import server as server_module
from repro.store import CACHE_ENV_VAR, STORE_ENV_VAR, CheckpointStore
from repro.store import checkpoint as store_module
from repro.store.checkpoint import TEMP_FILE_GRACE_S
from repro.store.serialization import reset_warnings
from repro.telemetry import parse_exposition
from tests.test_checkpoint_store import _run, _shard_blob

SAMPLE = RunRequest(kind="sample", workloads=("gcc",), methods=("rsr",),
                    design="ci")
MATRIX = RunRequest(kind="matrix", workloads=("gcc",), methods=("rsr",),
                    design="ci")
AUDIT = RunRequest(kind="audit", workloads=("gcc",), methods=("rsr",),
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


def _back_date(path) -> None:
    """Age a temp file past the grace period, as a killed writer's."""
    stamp = time.time() - TEMP_FILE_GRACE_S - 1
    os.utime(path, (stamp, stamp))


# ---------------------------------------------------------------------------
# result cache: damaged entries
# ---------------------------------------------------------------------------


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _blob(cache, key):
    return cache._blob_path(key, "results")


#: Each damage takes the cache and the key.  File damage breaks the
#: blob or manifest in place (the manifest check rejects it); a wrong
#: value is planted through `put`, so it passes that check and only the
#: reader's `validate` can reject it.
ENTRY_DAMAGE = {
    "truncated": lambda cache, key: _truncate(_blob(cache, key)),
    "garbage": lambda cache, key: _blob(cache, key).write_bytes(
        b"\x00garbage\xff"),
    "empty": lambda cache, key: _blob(cache, key).write_bytes(b""),
    "damaged-manifest": lambda cache, key: cache._manifest_path(
        key, "results").write_text("{not json"),
    "wrong-value": lambda cache, key: cache.put(
        key, ["not", "rows"], "results"),
    "wrong-kind": lambda cache, key: cache.put(
        key, {"kind": "audit", "design": "ci", "reports": {}}, "results"),
}


@pytest.mark.parametrize("damage", ENTRY_DAMAGE)
def test_damaged_request_entry_recomputes_identically(damage, baseline,
                                                      tmp_path, capsys):
    cache = ResultCache(tmp_path / "cache")
    execute_request(SAMPLE, cache=cache)
    ENTRY_DAMAGE[damage](cache, SAMPLE.cache_key())
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
    _blob(cache, MATRIX.cache_key()).unlink()
    cells = sorted(path for path in cache.root.glob("results/*/*.pkl"))
    assert len(cells) == 2  # the true run and the one sampled cell
    for path in cells:
        ENTRY_DAMAGE[damage](cache, path.stem)
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
        os.unlink(source)  # the temp file vanishes before its rename
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
    """The request, the true run and the cell are three keys: one read
    warning and one write warning for the root, none per key."""
    root = tmp_path / "not-a-directory"
    root.write_text("")
    result = execute_request(MATRIX, cache=ResultCache(root))
    assert result.payload == baseline["matrix"]
    err = capsys.readouterr().err
    assert err.count("result-cache root") == 1
    assert err.count("cannot write result-cache") == 1
    assert "corrupt" not in err


def test_gc_during_a_put_keeps_the_entry(tmp_path, monkeypatch, capsys):
    cache = ResultCache(tmp_path / "cache")
    key = SAMPLE.cache_key()
    real_replace = os.replace

    def replace(source, target):
        cache.gc(0)  # a `repro cache gc` beside the writer
        real_replace(source, target)

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", replace)
        cache.put(key, {"kind": "sample", "rows": []}, "results")
    assert cache.get(key, "results") == {"kind": "sample", "rows": []}
    assert cache.entry_count() == 1
    assert capsys.readouterr().err == ""


def test_killed_writer_temp_file_is_not_an_entry(baseline, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    execute_request(SAMPLE, cache=cache)
    entry = _blob(cache, SAMPLE.cache_key())
    dropping = entry.parent / ".tmp-killed.pkl"
    dropping.write_bytes(entry.read_bytes()[:10])
    rerun = execute_request(SAMPLE, cache=cache)
    assert rerun.cached and rerun.payload == baseline["sample"]
    assert cache.entry_count() == 1
    assert cache.total_bytes() == entry.stat().st_size
    _back_date(dropping)
    cache.gc(0)
    assert not dropping.exists()


def test_concurrent_writers_never_tear_an_entry(tmp_path, capsys):
    cache = ResultCache(tmp_path / "cache")
    key = SAMPLE.cache_key()
    values = [{"writer": index, "rows": [index] * 2000} for index in range(2)]
    reads = []

    def write(value):
        for _ in range(100):
            cache.put(key, value, "results")

    def read():
        for _ in range(200):
            reads.append(cache.get(key, "results"))

    threads = [threading.Thread(target=write, args=(value,))
               for value in values] + [threading.Thread(target=read)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(value is None or value in values for value in reads)
    assert cache.get(key, "results") in values
    assert cache.entry_count() == 1
    assert capsys.readouterr().err == ""
    assert _droppings(tmp_path) == []


def test_wrong_audit_reference_is_recomputed(tmp_path, monkeypatch, capsys):
    """A well-formed `results` entry under the audit reference's key
    that is not a trajectory is a warned miss, not a reference."""
    from repro.analysis import audit as audit_module

    def audit_payload():
        audit_module._TRAJECTORY_MEMO.clear()
        return execute_request(AUDIT, cache="off").payload

    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    clean = audit_payload()
    root = tmp_path / "cache"
    monkeypatch.setenv(CACHE_ENV_VAR, str(root))
    assert audit_payload() == clean
    (reference,) = root.glob("results/*/*.pkl")
    ResultCache(root).put(reference.stem, ["not", "a trajectory"], "results")
    capsys.readouterr()
    assert audit_payload() == clean
    assert capsys.readouterr().err.count("result-cache entry") == 1


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
    return root


@pytest.fixture(scope="module")
def storeless(store_workload):
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(STORE_ENV_VAR, raising=False)
        patch.delenv("REPRO_CLUSTER_JOBS", raising=False)
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
    assert "cannot write checkpoint-store" in capsys.readouterr().err
    assert _droppings(store_root) == []
    assert _run(store_workload).extra["checkpoint_store"] == "miss"


def test_store_root_that_is_a_file_keeps_the_result(store_workload,
                                                    storeless, store_root,
                                                    capsys):
    store_root.write_text("")
    _same_run(_run(store_workload), storeless)
    assert "cannot write checkpoint-store" in capsys.readouterr().err


def test_killed_writer_temp_file_is_not_a_store_entry(store_workload,
                                                      storeless, store_root):
    _run(store_workload)
    blob = _shard_blob(store_root)
    dropping = blob.parent / ".tmp-killed.pkl"
    dropping.write_bytes(blob.read_bytes()[:10])
    warm = _run(store_workload)
    assert warm.extra["checkpoint_store"] == "hit"
    _same_run(warm, storeless)
    store = CheckpointStore(store_root)
    assert store.entry_count() == 1
    _back_date(dropping)
    store.gc(0)
    assert not dropping.exists()


def test_store_entry_of_other_functional_code_is_not_served(
        store_workload, storeless, store_root, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(store_module, "code_version",
                      lambda packages=None: "0" * 16)
        assert _run(store_workload).extra["checkpoint_store"] == "miss"
    rerun = _run(store_workload)
    assert rerun.extra["checkpoint_store"] == "miss"
    _same_run(rerun, storeless)
    assert CheckpointStore(store_root).entry_count() == 2


# ---------------------------------------------------------------------------
# pool workers
# ---------------------------------------------------------------------------
#
# The workers below wrap the real ones and are module-level, so a
# spawn-started pool imports them by reference; tier-1 runs these cells
# under the platform's default start method and CI's spawn step runs
# them again under spawn.

#: Clusters whose shard kills the pool worker running it.  The ten
#: clusters at ci are dealt round-robin over two tasks (0, 2, ..., 8 and
#: 1, 3, ..., 9): a worker dies before it ran a shard, in the middle of
#: its task, after it ran all but its last, or both workers die.
VICTIMS = {"first-shard": (0,), "mid-task": (2,), "last-shard": (9,),
           "every-worker": (0, 1)}


def _in_pool_worker() -> bool:
    return multiprocessing.parent_process() is not None


def _die(marker):
    open(marker, "w").close()
    os._exit(9)


def _die_at_shard(victims, marker, task):
    """Phase B worker that kills its pool process on reaching a victim's
    shard, leaving `marker` behind; in the parent (the in-process re-run
    of a broken pool) it runs every shard."""
    results = []
    for shard in task.shards:
        if shard.index in victims and _in_pool_worker():
            _die(marker)
        results.append(pipeline.run_shard(task, shard))
    return results


def _die_at_grid_task(kind, marker, task):
    """Grid worker that kills its pool process on a task of `kind`."""
    if task.spec.kind == kind and _in_pool_worker():
        _die(marker)
    return parallel._run_matrix_task(task)


def _raise_at_shard(task):
    results = []
    for shard in task.shards:
        if shard.index == 2:
            raise ValueError("shard 2 failed")
        results.append(pipeline.run_shard(task, shard))
    return results


def _raise_at_cell(task):
    if task.spec.kind == "cell":
        raise ValueError("cell failed")
    return parallel._run_matrix_task(task)


def _route_workers(monkeypatch, worker):
    """Run every `map_tasks` call's tasks through `worker` instead."""
    map_tasks = parallel.map_tasks
    monkeypatch.setattr(
        parallel, "map_tasks",
        lambda _worker, tasks, jobs, **kwargs:
            map_tasks(worker, tasks, jobs, **kwargs))


def _sharded_rsr(monkeypatch, trace):
    """R$BP (20%) on gcc at ci over two Phase B workers, traced."""
    monkeypatch.setenv("REPRO_CLUSTER_JOBS", "2")
    monkeypatch.setenv("REPRO_TRACE", str(trace))
    monkeypatch.delenv(STORE_ENV_VAR, raising=False)
    run = simulate("gcc", method="R$BP (20%)", design="ci")
    assert run.extra["sharded"] is True
    return run, len(trace.read_text().splitlines())


def _grid_suite():
    from repro.warmup import resolve_method

    return [resolve_method("S$BP"), resolve_method("R$BP (20%)")]


def _grid():
    """S$BP and R$BP (20%) on gcc at ci: a true run and two cells over
    two pool workers."""
    from repro.harness import SCALES, execute_matrix

    grid = execute_matrix(_grid_suite, workload_names=("gcc",),
                          scale=SCALES["ci"], jobs=2)
    experiment = grid["gcc"]
    return experiment.true_run.ipc, {
        name: (outcome.run.cluster_ipcs, outcome.run.cost.as_dict())
        for name, outcome in experiment.outcomes.items()}


@pytest.fixture(scope="module")
def undisturbed(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        return _sharded_rsr(
            patch, tmp_path_factory.mktemp("undisturbed") / "trace.jsonl")


@pytest.fixture(scope="module")
def undisturbed_grid():
    return _grid()


@pytest.mark.parametrize("victims", VICTIMS)
def test_dying_phase_b_worker_is_bit_identical(victims, undisturbed,
                                               tmp_path, monkeypatch):
    marker = tmp_path / "worker-died"
    _route_workers(monkeypatch, functools.partial(
        _die_at_shard, VICTIMS[victims], str(marker)))
    run, records = _sharded_rsr(monkeypatch, tmp_path / "trace.jsonl")
    assert marker.exists(), "no pool worker reached a victim's shard"
    reference, reference_records = undisturbed
    assert run.cluster_ipcs == reference.cluster_ipcs
    assert run.cost.as_dict() == reference.cost.as_dict()
    assert records == reference_records > 0


@pytest.mark.parametrize("kind", ("true", "cell"),
                         ids=("true-run", "cell"))
def test_dying_grid_worker_is_bit_identical(kind, undisturbed_grid,
                                            tmp_path, monkeypatch):
    marker = tmp_path / "worker-died"
    _route_workers(monkeypatch, functools.partial(
        _die_at_grid_task, kind, str(marker)))
    grid = _grid()
    assert marker.exists(), f"no pool worker reached a {kind} task"
    assert grid == undisturbed_grid


@pytest.mark.parametrize("worker, message", (
    (_raise_at_shard, "shard 2 failed"), (_raise_at_cell, "cell failed"),
), ids=("phase-b", "grid"))
def test_raising_worker_propagates(worker, message, monkeypatch):
    """A worker's own exception is not a broken pool: it reaches the
    caller as itself."""
    monkeypatch.setenv("REPRO_CLUSTER_JOBS", "2")
    monkeypatch.delenv(STORE_ENV_VAR, raising=False)
    _route_workers(monkeypatch, worker)
    with pytest.raises(ValueError, match=message):
        if worker is _raise_at_shard:
            simulate("gcc", method="R$BP (20%)", design="ci")
        else:
            _grid()


# ---------------------------------------------------------------------------
# service: held result requests
# ---------------------------------------------------------------------------


def _held_service(tmp_path, monkeypatch):
    """A service at ci whose store sets `held` as each result request
    begins its wait."""
    service = SimulationService(options=RunOptions(scale="ci"),
                                cache=str(tmp_path / "cache"), port=0)
    held = threading.Event()
    wait = service.store.wait

    def noted_wait(job_id, timeout):
        held.set()
        return wait(job_id, timeout)

    monkeypatch.setattr(service.store, "wait", noted_wait)
    return service, held


def _gate_execution(monkeypatch, gate, error=None):
    """Start every service job only once `gate` is set; then run it, or
    raise `error` instead."""
    execute = server_module.execute_request

    def gated(request, **kwargs):
        assert gate.wait(60), "the gate never opened"
        if error is not None:
            raise error
        return execute(request, **kwargs)

    monkeypatch.setattr(server_module, "execute_request", gated)


def _results_answered(client) -> float:
    samples = parse_exposition(client.metrics())[
        "repro_http_requests_total"]["samples"]
    return sum(value for _, labels, value in samples
               if labels["route"] == "/results/{id}")


def test_client_gone_during_a_held_wait_keeps_the_job(baseline, tmp_path,
                                                      monkeypatch, capfd):
    """The job completes, a later request gets the inline payload, and
    answering the gone client prints no traceback."""
    gate = threading.Event()
    _gate_execution(monkeypatch, gate)
    service, held = _held_service(tmp_path, monkeypatch)
    with service:
        client = ServiceClient(service.url)
        job_id = client.submit(SAMPLE)
        with socket.create_connection((service.host, service.port),
                                      timeout=5) as conn:
            conn.sendall(f"GET /results/{job_id}?wait=30 HTTP/1.0\r\n"
                         f"\r\n".encode())
            assert held.wait(10)
        gate.set()
        result = client.result(job_id, timeout=120)
        deadline = time.monotonic() + 10
        while _results_answered(client) < 2 and \
                time.monotonic() < deadline:
            time.sleep(0.01)
        assert _results_answered(client) == 2
        assert client.status(job_id)["state"] == "done"
    assert result.payload == baseline["sample"]
    assert "Traceback" not in capfd.readouterr().err


def test_raising_job_wakes_a_held_wait_with_its_error(tmp_path,
                                                      monkeypatch):
    gate = threading.Event()
    _gate_execution(monkeypatch, gate, RuntimeError("synthetic failure"))
    service, held = _held_service(tmp_path, monkeypatch)
    with service:
        client = ServiceClient(service.url)
        job_id = client.submit(SAMPLE)
        opener = threading.Thread(
            target=lambda: held.wait(10) and gate.set())
        opener.start()
        started = time.monotonic()
        with pytest.raises(ServiceError) as excinfo:
            client._call(f"/results/{job_id}?wait=30")
        answered = time.monotonic() - started
        opener.join(10)
        assert not opener.is_alive()
    assert excinfo.value.status == 500
    assert excinfo.value.payload == {
        "job_id": job_id, "state": "failed",
        "error": "RuntimeError: synthetic failure"}
    assert answered < 10  # woken, not timed out at 30 s


def test_stop_answers_a_held_wait_at_once(tmp_path, monkeypatch):
    """stop() returns in about a second and the held request gets its
    job's pending state, not a hold that runs out."""
    service, held = _held_service(tmp_path, monkeypatch)
    monkeypatch.setattr(service, "_worker_loop", lambda: None)
    service.start()
    client = ServiceClient(service.url)
    job_id = client.submit(SAMPLE)
    answers = []
    holder = threading.Thread(target=lambda: answers.append(
        client._call(f"/results/{job_id}?wait=30", expect=(202,))))
    holder.start()
    assert held.wait(10)
    started = time.monotonic()
    service.stop()
    stopped = time.monotonic() - started
    holder.join(10)
    assert not holder.is_alive()
    assert answers == [(202, {"job_id": job_id, "state": "queued"})]
    assert stopped < 1.5


def test_client_reset_before_its_request_line_prints_nothing(
        tmp_path, monkeypatch, capfd):
    """A client that sends part of a request line and resets the
    connection leaves no traceback, and the next request is served."""
    closed = threading.Event()
    shutdown_request = socketserver.TCPServer.shutdown_request

    def noted_shutdown(self, request):
        shutdown_request(self, request)
        closed.set()

    monkeypatch.setattr(socketserver.TCPServer, "shutdown_request",
                        noted_shutdown)
    service = SimulationService(options=RunOptions(scale="ci"),
                                cache=str(tmp_path / "cache"), port=0)
    with service:
        conn = socket.create_connection((service.host, service.port),
                                        timeout=5)
        conn.sendall(b"GET /resu")
        # Linger 0: close() sends a reset instead of a FIN.
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        conn.close()
        assert closed.wait(10), "the server never finished the request"
        health = ServiceClient(service.url).health()
    assert health["status"] == "ok"
    assert capfd.readouterr().err == ""


# ---------------------------------------------------------------------------
# CLI output paths
# ---------------------------------------------------------------------------

GRID = ["matrix", "--workload", "gcc", "--method", "rsr", "--scale", "ci",
        "--jobs", "1", "--cache", "off", "--quiet"]

UNWRITABLE_OUTPUTS = {
    "matrix-output": (GRID + ["--output", f"{UNWRITABLE}/grid.json"], {}),
    "matrix-trace": (GRID + ["--trace", f"{UNWRITABLE}/trace.jsonl"], {}),
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


@pytest.mark.parametrize("name", (
    "REPRO_TELEMETRY", "REPRO_SPANS", "REPRO_EVENTS", "REPRO_SERVICE_LOG"))
def test_retired_recording_switch_exits_2(name, monkeypatch, capsys):
    """REPRO_TRACE replaced the other recording switches: a grid run
    with one of them set fails before any cell, naming REPRO_TRACE,
    instead of running without the records it asked for."""
    def unreachable(*args, **kwargs):
        raise AssertionError("the grid ran under a retired switch")

    monkeypatch.setattr("repro.harness.execute_matrix", unreachable)
    monkeypatch.setenv(name, "spans.jsonl")
    assert main(GRID) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} is retired")
    assert "REPRO_TRACE" in err and "Traceback" not in err


REPRODUCE = ["reproduce", "--scale", "ci"]


@pytest.mark.parametrize("argv, message", (
    (GRID + ["--output", f"{UNWRITABLE}/grid.json"], UNWRITABLE),
    (REPRODUCE + ["--output", f"{UNWRITABLE}/grid.json"], UNWRITABLE),
    (GRID + ["--output", "grid.txt"], "must end with .csv or .json"),
    (REPRODUCE + ["--output", "grid.txt"], "must end with .csv or .json"),
), ids=("matrix", "reproduce", "matrix-extension", "reproduce-extension"))
def test_unwritable_grid_output_fails_before_any_cell(argv, message,
                                                      monkeypatch, capsys,
                                                      tmp_path):
    def unreachable(*args, **kwargs):
        raise AssertionError("the grid ran before --output was checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("repro.harness.execute_matrix", unreachable)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "grid.txt").exists()
