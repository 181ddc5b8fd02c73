"""Conformance suite for the pluggable executor backends.

Every backend registered in :mod:`repro.harness.executor` must satisfy
the same contract: results return in task order (deterministic fold),
sharded simulation folds bit-identically to serial, unpicklable work
degrades to in-process execution with identical results, span parents
propagate into workers, worker crashes re-raise in the parent, and
``close(cancel=True)`` terminates live worker processes instead of
orphaning them (the interrupted-run bugfix).  Backends added via
:func:`register_executor` are automatically covered when the suite is
parametrized over :func:`registered_executor_names`.
"""

import functools
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import time

import pytest

from repro.core import ReverseStateReconstruction
from repro.harness.executor import (
    DEFAULT_EXECUTOR,
    EXECUTOR_ENV_VAR,
    InProcessExecutor,
    ProcessPoolBackend,
    describe_executors,
    executor_factory,
    register_executor,
    registered_executor_names,
    resolve_executor,
    unregister_executor,
)
from repro.harness.parallel import map_tasks
from repro.sampling import SampledSimulator, SamplingRegimen
from repro.telemetry.runid import RUN_ID_ENV_VAR
from repro.telemetry.spans import SPAN_PARENT_ENV_VAR, SpanContext
from repro.workloads import build_workload

BACKENDS = registered_executor_names()

REGIMEN = SamplingRegimen(total_instructions=24_000, num_clusters=4,
                          cluster_size=600, seed=7)


def _square(task):
    return task * task


def _slow_square(task):
    index, delay = task
    time.sleep(delay)
    return index * index


def _boom(task):
    if task == 3:
        raise ValueError(f"boom {task}")
    return task


def _read_span_parent(_task):
    return os.environ.get(SPAN_PARENT_ENV_VAR)


def _read_run_id(_task):
    return os.environ.get(RUN_ID_ENV_VAR)


def _sleep_forever(_task):
    time.sleep(120)


def _square_unless_three_in_child(task):
    """Kills its pool worker on task 3; runs normally in the parent."""
    if task == 3 and multiprocessing.parent_process() is not None:
        os._exit(9)
    return task * task


def _square_unless_crash_in_child(crash, task):
    """Kills its pool worker on task `crash`; runs normally in the
    parent."""
    if task == crash and multiprocessing.parent_process() is not None:
        os._exit(9)
    return task * task


class _Unpicklable:
    """A worker that cannot cross a process boundary."""

    def __getstate__(self):
        raise pickle.PicklingError("deliberately unpicklable")

    def __call__(self, task):
        return task + 1


def _task_value(task):
    return task(0) if callable(task) else task


class _CountingTask:
    """A task that counts how often the parent process pickles it."""

    pickled = 0

    def __init__(self, value):
        self.value = value

    def __getstate__(self):
        type(self).pickled += 1
        return {"value": self.value}

    def __call__(self, _):
        return self.value


@pytest.mark.parametrize("name", BACKENDS)
class TestConformance:
    def test_results_in_task_order(self, name):
        tasks = list(range(8))
        with resolve_executor(name, jobs=4) as backend:
            assert backend.map(_square, tasks) == [t * t for t in tasks]

    def test_order_preserved_under_skewed_completion(self, name):
        # Later tasks finish first; the fold must still be in task order.
        tasks = [(i, 0.05 * (4 - i)) for i in range(5)]
        with resolve_executor(name, jobs=5) as backend:
            assert backend.map(_slow_square, tasks) == [
                i * i for i in range(5)
            ]

    def test_on_result_sees_every_index_once(self, name):
        seen = []
        with resolve_executor(name, jobs=4) as backend:
            backend.map(_square, list(range(6)),
                        on_result=lambda i, r: seen.append((i, r)))
        assert sorted(seen) == [(i, i * i) for i in range(6)]

    def test_crash_propagates(self, name):
        with pytest.raises(ValueError, match="boom 3"):
            with resolve_executor(name, jobs=4) as backend:
                backend.map(_boom, list(range(6)))

    def test_unpicklable_worker_still_runs(self, name):
        # Backends that require pickling must degrade to in-process
        # execution (with identical results) instead of failing.
        with resolve_executor(name, jobs=4) as backend:
            assert backend.map(_Unpicklable(), list(range(5))) == [
                1, 2, 3, 4, 5,
            ]

    def test_unpicklable_later_task_still_runs(self, name):
        # The picklability probe covers every task, not just the first.
        tasks = [5, 6, 7, _Unpicklable()]
        with resolve_executor(name, jobs=4) as backend:
            assert backend.map(_task_value, tasks) == [5, 6, 7, 1]

    def test_span_parent_propagates(self, name):
        context = SpanContext(parent_id="span-conform", origin_wall_ns=12345)
        parents = map_tasks(_read_span_parent, list(range(4)), jobs=2,
                            span_context=context, executor=name)
        assert parents == [context.encode()] * 4

    def test_run_id_propagates(self, name, monkeypatch):
        # The correlation-id leg of the conformance contract: every
        # backend's workers — in process or in pool processes — see the
        # run_id map_tasks plants, and it never leaks past the call.
        monkeypatch.delenv(RUN_ID_ENV_VAR, raising=False)
        seen = map_tasks(_read_run_id, list(range(4)), jobs=2,
                         executor=name, run_id="rconform01")
        assert seen == ["rconform01"] * 4
        assert RUN_ID_ENV_VAR not in os.environ
        # Without an explicit id, the ambient environment wins.
        monkeypatch.setenv(RUN_ID_ENV_VAR, "rambient02")
        assert map_tasks(_read_run_id, [0], jobs=1, executor=name) == \
            ["rambient02"]

    def test_sharded_fold_bit_identical_across_backends(self, name,
                                                        monkeypatch):
        """The acceptance bar: for the same sharding, every backend's
        Phase B fold — cluster IPCs, estimate, WarmupCost (gap logs
        included) — is bit-identical to the in-process reference, and
        the cost ledger matches the serial walk exactly (the pipeline's
        existing serial/sharded contract)."""
        workload = build_workload("ammp")

        def run(cluster_jobs):
            simulator = SampledSimulator(
                workload, REGIMEN, warmup_prefix=2_000, detail_ramp=64,
                cluster_jobs=cluster_jobs,
            )
            return simulator.run(ReverseStateReconstruction(0.3))

        monkeypatch.setenv(EXECUTOR_ENV_VAR, "inprocess")
        serial = run(1)
        reference = run(2)
        monkeypatch.setenv(EXECUTOR_ENV_VAR, name)
        sharded = run(2)
        assert sharded.cluster_ipcs == reference.cluster_ipcs
        assert sharded.estimate == reference.estimate
        assert sharded.cost == reference.cost
        assert sharded.cost == serial.cost


def test_pool_pickles_each_task_once(monkeypatch):
    monkeypatch.setattr(_CountingTask, "pickled", 0)
    tasks = [_CountingTask(value) for value in range(4)]
    with resolve_executor("pool", jobs=2) as backend:
        assert backend.map(_task_value, tasks) == [0, 1, 2, 3]
    assert _CountingTask.pickled == len(tasks)


def test_broken_pool_delivers_each_index_once():
    """A worker killed under the pool re-runs in process only the tasks
    not yet delivered, so `on_result` sees every index exactly once."""
    delivered = []
    with resolve_executor("pool", jobs=2) as backend:
        results = backend.map(_square_unless_three_in_child, list(range(4)),
                              on_result=lambda i, r: delivered.append(i))
    assert results == [0, 1, 4, 9]
    assert sorted(delivered) == [0, 1, 2, 3]


@pytest.mark.parametrize("crash", [0, 5])
def test_broken_pool_delivers_each_index_once_wherever_it_breaks(crash):
    """The pool may break before anything was delivered (first task) or
    after almost everything was (last task); either way the in-process
    re-run covers exactly the indices still missing."""
    delivered = []
    with resolve_executor("pool", jobs=2) as backend:
        results = backend.map(
            functools.partial(_square_unless_crash_in_child, crash),
            list(range(6)), on_result=lambda i, r: delivered.append(i))
    assert results == [t * t for t in range(6)]
    assert sorted(delivered) == list(range(6))


class TestRegistry:
    def test_unknown_name_is_readable(self):
        with pytest.raises(ValueError, match="unknown executor 'warp'"):
            resolve_executor("warp")

    @pytest.mark.parametrize("name", ["threads", "subprocess-queue"])
    def test_retired_backends_are_unknown(self, name):
        """The thread and spool-queue backends are gone; their names fail
        like any other unknown name."""
        assert name not in registered_executor_names()
        with pytest.raises(ValueError, match=f"unknown executor '{name}'"):
            resolve_executor(name)

    def test_known_names_listed_in_error(self):
        with pytest.raises(ValueError, match="pool"):
            executor_factory("nope")

    def test_register_resolve_unregister(self):
        class Custom(InProcessExecutor):
            name = "custom-test"

        register_executor("custom-test", Custom)
        try:
            backend = resolve_executor("custom-test", jobs=2)
            assert isinstance(backend, Custom)
            assert "custom-test" in registered_executor_names()
        finally:
            unregister_executor("custom-test")
        assert "custom-test" not in registered_executor_names()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_executor("pool", ProcessPoolBackend)

    def test_replace_allows_override(self):
        original = executor_factory("inprocess")
        register_executor("inprocess", InProcessExecutor, replace=True)
        assert executor_factory("inprocess") is original

    def test_env_var_picks_backend(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "inprocess")
        assert isinstance(resolve_executor(None), InProcessExecutor)

    def test_default_is_pool(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        assert DEFAULT_EXECUTOR == "pool"
        assert isinstance(resolve_executor(None), ProcessPoolBackend)

    def test_instance_passes_through(self):
        backend = InProcessExecutor(3)
        assert resolve_executor(backend) is backend

    def test_describe_covers_all_backends(self):
        rows = describe_executors()
        assert [name for name, _, _ in rows] == BACKENDS
        assert all(desc for _, _, desc in rows)


class TestCancelCleanup:
    """``close(cancel=True)`` must terminate live workers (the
    interrupted-run orphan bugfix)."""

    def _assert_cancel_kills_workers(self, backend, live_processes):
        error = []

        def run():
            try:
                backend.map(_sleep_forever, list(range(4)))
            except BaseException as exc:  # expected: cancelled mid-map
                error.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and not live_processes(backend):
            time.sleep(0.05)
        procs = live_processes(backend)
        assert procs, "workers never came up"
        backend.close(cancel=True)
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline and any(
                alive() for alive in procs):
            time.sleep(0.05)
        assert not any(alive() for alive in procs), \
            "cancel left live worker processes behind"
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_pool_cancel_terminates_workers(self):
        backend = ProcessPoolBackend(jobs=2)
        self._assert_cancel_kills_workers(
            backend,
            lambda b: [proc.is_alive for proc in
                       list(getattr(b._pool, "_processes", {}).values())]
            if b._pool is not None else [],
        )

    def test_context_manager_cancels_on_exception(self):
        backend = ProcessPoolBackend(jobs=2)
        with pytest.raises(RuntimeError, match="interrupted"):
            with backend:
                raise RuntimeError("interrupted")
        assert backend._pool is None


class TestAtomicEventAppends:
    """Concurrent multi-process appends must interleave whole lines
    (the events-JSONL half of the interrupted-run bugfix)."""

    def test_concurrent_writers_never_fragment_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        writers = 4
        per_writer = 50
        script = (
            "import sys\n"
            "from repro.telemetry.events import emit_event\n"
            "wid, count, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]\n"
            "for i in range(count):\n"
            "    emit_event(path, 'cell', writer=wid, seq=i,\n"
            "               pad='x' * 512)\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(w), str(per_writer),
                 str(path)],
                env={**os.environ,
                     "PYTHONPATH": os.pathsep.join(sys.path)},
            )
            for w in range(writers)
        ]
        for proc in procs:
            assert proc.wait(timeout=60) == 0
        lines = path.read_text().splitlines()
        assert len(lines) == writers * per_writer
        records = [json.loads(line) for line in lines]  # no fragments
        for w in range(writers):
            seqs = [r["seq"] for r in records if r["writer"] == str(w)]
            assert sorted(seqs) == list(range(per_writer))

    def test_emit_without_path_is_noop(self):
        from repro.telemetry.events import emit_event

        emit_event(None, "cell", nope=1)  # must not raise
