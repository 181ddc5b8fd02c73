"""Conformance suite for the one fan-out, `harness.parallel.map_tasks`.

`map_tasks` runs its tasks in a process pool, or in process when
``jobs <= 1`` or when the pool cannot run them.  Both paths satisfy
the same contract, so the suite is parametrized over ``jobs`` in
(1, 2): results return in task order (deterministic fold), sharded
simulation folds bit-identically to the in-process reference,
unpicklable work degrades to in-process execution with identical
results, span parents and run ids propagate into workers, worker
crashes re-raise in the parent, and ``close(cancel=True)`` terminates
live worker processes instead of orphaning them (the interrupted-run
bugfix).
"""

import functools
import json
import multiprocessing
import os
import pickle
import shutil
import subprocess
import sys
import threading
import time

import pytest

from repro.core import ReverseStateReconstruction
from repro.harness import executor as executor_module
from repro.harness import parallel
from repro.harness.executor import ProcessPool
from repro.harness.parallel import map_tasks
from repro.sampling import SampledSimulator, SamplingRegimen
from repro.telemetry.runid import RUN_ID_ENV_VAR
from repro.telemetry.spans import SPAN_PARENT_ENV_VAR, SpanContext
from repro.workloads import build_workload

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


@pytest.mark.parametrize("jobs", [1, 2], ids=["in-process", "pool"])
class TestConformance:
    def test_results_in_task_order(self, jobs):
        tasks = list(range(8))
        assert map_tasks(_square, tasks, jobs) == [t * t for t in tasks]

    def test_order_preserved_under_skewed_completion(self, jobs):
        # Later tasks finish first; the fold must still be in task order.
        tasks = [(i, 0.05 * (4 - i)) for i in range(5)]
        assert map_tasks(_slow_square, tasks, jobs) == [
            i * i for i in range(5)
        ]

    def test_on_result_sees_every_index_once(self, jobs):
        seen = []
        map_tasks(_square, list(range(6)), jobs,
                  on_result=lambda i, r: seen.append((i, r)))
        assert sorted(seen) == [(i, i * i) for i in range(6)]

    def test_crash_propagates(self, jobs):
        with pytest.raises(ValueError, match="boom 3"):
            map_tasks(_boom, list(range(6)), jobs)

    def test_unpicklable_worker_still_runs(self, jobs):
        # Work a spawn-started pool cannot pickle degrades to in-process
        # execution (with identical results) instead of failing.
        assert map_tasks(_Unpicklable(), list(range(5)), jobs) == [
            1, 2, 3, 4, 5,
        ]

    def test_unpicklable_later_task_still_runs(self, jobs):
        # The picklability probe covers every task, not just the first.
        tasks = [5, 6, 7, _Unpicklable()]
        assert map_tasks(_task_value, tasks, jobs) == [5, 6, 7, 1]

    def test_span_parent_propagates(self, jobs):
        context = SpanContext(parent_id="span-conform", origin_wall_ns=12345)
        parents = map_tasks(_read_span_parent, list(range(4)), jobs,
                            span_context=context)
        assert parents == [context.encode()] * 4

    def test_run_id_propagates(self, jobs, monkeypatch):
        # The correlation-id leg of the conformance contract: workers —
        # in process or in pool processes — see the run_id map_tasks
        # plants, and it never leaks past the call.
        monkeypatch.delenv(RUN_ID_ENV_VAR, raising=False)
        seen = map_tasks(_read_run_id, list(range(4)), jobs,
                         run_id="rconform01")
        assert seen == ["rconform01"] * 4
        assert RUN_ID_ENV_VAR not in os.environ
        # Without an explicit id, the ambient environment wins.
        monkeypatch.setenv(RUN_ID_ENV_VAR, "rambient02")
        assert map_tasks(_read_run_id, [0], jobs) == ["rambient02"]

    def test_sharded_fold_bit_identical(self, jobs, monkeypatch):
        """The acceptance bar: for the same sharding, the Phase B fold —
        cluster IPCs, estimate, WarmupCost (gap logs included) — is
        bit-identical to the in-process reference, and the cost ledger
        matches the serial walk exactly (the pipeline's existing
        serial/sharded contract)."""
        workload = build_workload("ammp")

        def run(cluster_jobs, pool_jobs):
            monkeypatch.setattr(parallel, "ProcessPool",
                                lambda _jobs: ProcessPool(pool_jobs))
            simulator = SampledSimulator(
                workload, REGIMEN, warmup_prefix=2_000, detail_ramp=64,
                cluster_jobs=cluster_jobs,
            )
            return simulator.run(ReverseStateReconstruction(0.3))

        serial = run(1, 1)
        reference = run(2, 1)
        sharded = run(2, jobs)
        assert sharded.cluster_ipcs == reference.cluster_ipcs
        assert sharded.estimate == reference.estimate
        assert sharded.cost == reference.cost
        assert sharded.cost == serial.cost


def _forking() -> bool:
    return multiprocessing.get_start_method() == "fork"


def test_pool_parent_pickles_no_task_under_fork(monkeypatch):
    """Forked workers inherit their tasks: the parent pickles none.
    Spawn and forkserver pickle each task once instead."""
    monkeypatch.setattr(_CountingTask, "pickled", 0)
    tasks = [_CountingTask(value) for value in range(4)]
    assert ProcessPool(2).map(_task_value, tasks) == [0, 1, 2, 3]
    assert _CountingTask.pickled == (0 if _forking() else len(tasks))


class _UnpicklablePid(_Unpicklable):
    """An unpicklable task reporting the process that ran it."""

    def __call__(self, task):
        return task + 1, os.getpid()


def test_unpicklable_task_runs_in_child_under_fork():
    """A task that cannot pickle still reaches a forked worker; under
    spawn or forkserver it degrades to the parent with the same result."""
    tasks = [_UnpicklablePid() for _ in range(4)]
    results = ProcessPool(2).map(lambda task: task(1), tasks)
    assert [value for value, _ in results] == [2] * 4
    pids = {pid for _, pid in results}
    if _forking():
        assert os.getpid() not in pids
    else:
        assert pids == {os.getpid()}


#: Spawns pool workers that exit before reading their start-up
#: payload, and fans out tasks larger than a pipe buffer.
_DEAD_SPAWN_SCRIPT = """
import multiprocessing
from repro.harness.parallel import map_tasks

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    multiprocessing.set_executable(FALSE)
    print(map_tasks(len, [b"x" * 100_000] * 4, 2))
"""


@pytest.mark.skipif(shutil.which("false") is None,
                    reason="needs a `false` executable")
def test_spawned_workers_that_die_at_start_do_not_hang_the_parent():
    """Spawned workers that die before reading their start-up payload
    break the pool, and the tasks run in process, however large they
    are: the payload carries none of them, so the parent never blocks
    writing it."""
    script = f"FALSE = {shutil.which('false')!r}\n" + _DEAD_SPAWN_SCRIPT
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split("\n")[-2] == str([100_000] * 4)


def test_broken_pool_delivers_each_index_once():
    """A worker killed under the pool re-runs in process only the tasks
    not yet delivered, so `on_result` sees every index exactly once."""
    delivered = []
    results = ProcessPool(2).map(_square_unless_three_in_child,
                                 list(range(4)),
                                 on_result=lambda i, r: delivered.append(i))
    assert results == [0, 1, 4, 9]
    assert sorted(delivered) == [0, 1, 2, 3]


@pytest.mark.parametrize("crash", [0, 5])
def test_broken_pool_delivers_each_index_once_wherever_it_breaks(crash):
    """The pool may break before anything was delivered (first task) or
    after almost everything was (last task); either way the in-process
    re-run covers exactly the indices still missing."""
    delivered = []
    results = ProcessPool(2).map(
        functools.partial(_square_unless_crash_in_child, crash),
        list(range(6)), on_result=lambda i, r: delivered.append(i))
    assert results == [t * t for t in range(6)]
    assert sorted(delivered) == list(range(6))


def _pid(_task):
    return os.getpid()


def _nested_pids(_task):
    """In a pool worker: the pids a nested fan-out ran on, and its own."""
    return map_tasks(_pid, list(range(3)), 2), os.getpid()


def _no_pools(*args, **kwargs):
    raise OSError("no process pools on this platform")


@pytest.mark.parametrize("jobs, count, no_pools", [
    (1, 4, False), (4, 1, False), (2, 4, True),
], ids=["one-job", "one-task", "no-pools"])
def test_fallback_runs_in_the_caller(jobs, count, no_pools, monkeypatch):
    """Each fallback runs every task in the calling process and streams
    each index once, in task order."""
    if no_pools:
        monkeypatch.setattr(executor_module, "ProcessPoolExecutor",
                            _no_pools)
    seen = []
    pids = map_tasks(_pid, list(range(count)), jobs,
                     on_result=lambda index, _: seen.append(index))
    assert pids == [os.getpid()] * count
    assert seen == list(range(count))


def test_fan_out_in_a_pool_worker_runs_in_that_worker():
    """A fan-out inside a pool worker (a matrix cell sharding its
    clusters) runs in that worker: the cells already occupy the pool,
    so it starts no pool of its own."""
    results = map_tasks(_nested_pids, [0, 1], 2)
    for nested, worker in results:
        assert nested == [worker] * 3
    assert os.getpid() not in {worker for _, worker in results}


def test_pool_runs_tasks_in_worker_processes():
    assert os.getpid() not in map_tasks(_pid, list(range(4)), 2)


def _new_children(before, seconds=15):
    """Child processes that are not in `before`, once they had `seconds`
    to exit."""
    deadline = time.monotonic() + seconds
    while True:
        new = set(multiprocessing.active_children()) - before
        if not new or time.monotonic() > deadline:
            return new
        time.sleep(0.05)


def test_map_tasks_leaves_no_worker_behind():
    """`map_tasks` closes the pool it built, after a clean run and after
    a worker raised."""
    before = set(multiprocessing.active_children())
    assert map_tasks(_square, list(range(4)), 2) == [0, 1, 4, 9]
    assert _new_children(before) == set()
    with pytest.raises(ValueError, match="boom 3"):
        map_tasks(_boom, list(range(6)), 2)
    assert _new_children(before) == set()


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
        backend = ProcessPool(2)
        self._assert_cancel_kills_workers(
            backend,
            lambda b: [proc.is_alive for proc in
                       list(getattr(b._pool, "_processes", {}).values())]
            if b._pool is not None else [],
        )


class TestAtomicAppends:
    """Concurrent multi-process appends to one record file must
    interleave whole lines (the interrupted-run bugfix)."""

    def test_concurrent_writers_never_fragment_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writers = 4
        per_writer = 50
        script = (
            "import sys\n"
            "from repro.telemetry import append_trace\n"
            "wid, count, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]\n"
            "for i in range(count):\n"
            "    append_trace([{'type': 'cell', 'writer': wid, 'seq': i,\n"
            "                   'pad': 'x' * 512}], path)\n"
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

    def test_session_without_path_writes_nothing(self, tmp_path,
                                                 monkeypatch):
        from repro.telemetry import Telemetry

        monkeypatch.chdir(tmp_path)
        session = Telemetry()
        session.spans.mark("cell", completed=1)
        assert session.flush() == 0
        assert list(tmp_path.iterdir()) == []
