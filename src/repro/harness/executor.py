"""The one fan-out: a process pool with an in-process fallback.

Every fan-out site in the repo — Phase B cluster shards
(:func:`repro.sampling.pipeline.run_sharded`) and matrix cells
(:func:`~.parallel.execute_matrix`) — dispatches a fixed list of tasks
through :func:`~.parallel.map_tasks`, which builds a
:class:`ProcessPool` and closes it.  The pool runs the tasks in a
``ProcessPoolExecutor`` and falls back to a plain in-process loop, with
identical results, when ``jobs <= 1``, when the caller is itself one
of its pool workers, when the platform cannot build a process pool,
when the work does not pickle for a spawn-started worker, and — for
the tasks not yet delivered — when a worker dies underneath the pool.

Whichever path runs, the pool keeps the invariants the simulation
relies on:

- **Deterministic fold order** — ``map`` returns ``[worker(t) for t in
  tasks]`` in task order regardless of completion order, so folds stay
  bit-identical to serial execution.
- **Streaming delivery** — ``on_result(index, result)`` sees every
  index exactly once, in completion order, also after a broken pool.
- **Environment propagation** — pool workers inherit the caller's
  environment at launch, so span parents
  (``REPRO_SPAN_PARENT``), telemetry collection flags, and the rest of
  the ``REPRO_*`` surface ride into workers.
- **Tasks are inherited, not shipped** — the pool hands ``(worker,
  tasks)`` to its workers through the pool initializer and submits
  only task indices.  Forked workers inherit them: the parent pickles
  no task, and workers run on its own objects (a workload's predecode
  and translated blocks included).  Spawn and forkserver pickle them
  once per worker.

``map`` closes its pool before it returns or raises; on an exception
(KeyboardInterrupt, a crashing worker) ``close(cancel=True)`` cancels
pending work and *terminates* live worker processes, so an interrupted
run cannot leave orphans behind.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable


#: ``(worker, tasks)`` of the running ``map``; set in pool workers only,
#: so it also tells a nested ``map`` that it runs in a pool worker.
_WORK: "tuple[Callable, list] | None" = None


def _adopt_work(worker, tasks) -> None:
    """Pool initializer: keep the map's work for :func:`_run_index`."""
    global _WORK
    _WORK = (worker, tasks)


def _run_index(index: int):
    """Pool-side: run the adopted worker on one task."""
    worker, tasks = _WORK
    return worker(tasks[index])


def _run_in_process(worker, tasks, on_result, delivered: dict) -> None:
    """Run every task not yet in `delivered` here, in task order."""
    for index, task in enumerate(tasks):
        if index not in delivered:
            delivered[index] = result = worker(task)
            if on_result is not None:
                on_result(index, result)


def _drain_futures(futures: dict, on_result, delivered: dict) -> None:
    """Record each result of `futures` (future -> index) in `delivered`
    (index -> result) as it lands, in completion order.  A worker
    exception cancels the rest and re-raises; what landed before stays
    recorded."""
    remaining = set(futures)
    try:
        while remaining:
            done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
            for future in done:
                index = futures[future]
                delivered[index] = result = future.result()
                if on_result is not None:
                    on_result(index, result)
    except BaseException:
        for future in remaining:
            future.cancel()
        raise


class ProcessPool:
    """Order-preserving ``ProcessPoolExecutor`` fan-out over `jobs`
    workers.

    Falls back to in-process execution — with identical results — when
    ``jobs <= 1``, the caller is already a pool worker (a matrix cell
    that shards its clusters: the cells already occupy the workers),
    the platform cannot build a process pool, or the work does not
    pickle for a spawn-started worker.  A *broken* pool (a worker
    killed by the OS) also degrades to in-process execution of the
    tasks it had not delivered yet; a genuine exception raised by
    `worker` propagates as itself.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = max(1, int(jobs))
        self._pool: ProcessPoolExecutor | None = None
        self._cancelled = False

    def map(self, worker: Callable, tasks: list, *,
            on_result: "Callable[[int, object], None] | None" = None) -> list:
        """``[worker(t) for t in tasks]``, preserved in task order.

        `on_result` (optional) is called with ``(index, result)`` as
        each task finishes, in *completion* order, once per index.
        """
        delivered: dict = {}
        if self.jobs <= 1 or len(tasks) <= 1 or _WORK is not None:
            _run_in_process(worker, tasks, on_result, delivered)
            return [delivered[index] for index in range(len(tasks))]
        self._cancelled = False
        started = False
        try:
            # Workers start at the first submit: forked ones inherit
            # (worker, tasks), spawned ones unpickle them, so work that
            # does not pickle raises here, in the parent.
            self._pool = pool = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(tasks)),
                initializer=_adopt_work, initargs=(worker, tasks))
            futures = {pool.submit(_run_index, index): index
                       for index in range(len(tasks))}
            started = True
            _drain_futures(futures, on_result, delivered)
        except Exception as error:
            # Our own close(cancel=True) must not resurrect the work,
            # and a genuine worker exception propagates as itself.
            broken = isinstance(error, BrokenProcessPool)
            if self._cancelled or (started and not broken):
                self.close(cancel=True)
                raise
            # The pool never started (no pools on this platform, work
            # that does not pickle) or died underneath us (OOM-killed
            # worker, fork failure): run in process what was not
            # delivered, so `on_result` still sees each index once.
            self.close(cancel=True)
            _run_in_process(worker, tasks, on_result, delivered)
        except BaseException:
            self.close(cancel=True)
            raise
        finally:
            self.close()
        return [delivered[index] for index in range(len(tasks))]

    def close(self, *, cancel: bool = False) -> None:
        """Shut the pool down; `cancel` terminates live workers."""
        if cancel:
            self._cancelled = True
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if cancel:
            # Abandon queued work, then terminate live workers: pending
            # futures never start, and mid-task processes are killed
            # rather than orphaned (shutdown alone would wait on them).
            # The process handles must be captured first — shutdown()
            # drops the pool's reference to them.
            processes = list(
                (getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                if process.is_alive():
                    process.terminate()
        else:
            pool.shutdown()
