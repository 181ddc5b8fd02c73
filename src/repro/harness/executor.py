"""Pluggable task-execution backends (the `Executor` protocol).

Every fan-out site in the repo — Phase B cluster shards
(:func:`repro.sampling.pipeline.run_sharded` via
:func:`~.parallel.map_tasks`) and matrix cells
(:func:`~.parallel.execute_matrix`) — dispatches a fixed list of
picklable tasks through one interface and folds the results back in
task order.  This module lifts that interface out of the hard-wired
``ProcessPoolExecutor`` into a registry of interchangeable backends:

``inprocess``
    Plain in-process loop.  No pickling requirements, deterministic,
    the reference semantics every other backend must match bit for bit.
``pool``
    The default: a
    ``ProcessPoolExecutor`` fan-out with graceful in-process fallbacks
    (``jobs <= 1``, daemonic caller, platforms without working pools,
    work a spawn-started worker cannot unpickle, a worker killed
    underneath the pool).

Every backend preserves the invariants the simulation relies on:

- **Deterministic fold order** — ``map`` returns ``[worker(t) for t in
  tasks]`` in task order regardless of completion order, so folds stay
  bit-identical to serial execution.
- **Environment propagation** — pool workers inherit the caller's
  environment at launch, so span parents
  (``REPRO_SPAN_PARENT``), telemetry collection flags, and the rest of
  the ``REPRO_*`` surface ride into workers exactly as they do today.
- **Tasks are inherited, not shipped** — the pool hands ``(worker,
  tasks)`` to its workers through the pool initializer and submits
  only task indices.  Forked workers inherit them: the parent pickles
  no task, and workers run on its own objects (a workload's predecode
  and translated blocks included).  Spawn and forkserver pickle them
  once per worker.

Backends are context managers: ``close(cancel=True)`` cancels pending
work and *terminates* live worker processes, so an interrupted run
(KeyboardInterrupt, a crashing worker) cannot leave orphans behind —
``with resolve_executor("pool", jobs=4) as pool: ...`` is the safe
idiom and what :func:`~.parallel.map_tasks` does internally.

Names resolve through :func:`resolve_executor` with the same readable
``ValueError`` contract as the warm-up method registry (the CLI maps it
to exit status 2); third-party backends register via
:func:`register_executor`.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable

#: Environment variable naming the default backend for fan-out sites
#: that are not handed an explicit executor (resolved through
#: :class:`~.options.RunOptions` at CLI/service entry).
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"

#: The backend used when neither the caller nor the environment picks
#: one (the historical process-pool behavior).
DEFAULT_EXECUTOR = "pool"


#: ``(worker, tasks)`` of the running ``map``; set in pool workers only.
_WORK: "tuple[Callable, list] | None" = None


def _adopt_work(worker, tasks) -> None:
    """Pool initializer: keep the map's work for :func:`_run_index`."""
    global _WORK
    _WORK = (worker, tasks)


def _run_index(index: int):
    """Pool-side: run the adopted worker on one task."""
    worker, tasks = _WORK
    return worker(tasks[index])


def _in_daemon() -> bool:
    import multiprocessing

    return multiprocessing.current_process().daemon


class Executor:
    """Order-preserving batch executor for a fixed list of tasks.

    Subclasses implement :meth:`map`; :meth:`close` releases resources
    (``cancel=True`` additionally abandons pending work and terminates
    live worker processes).  Instances are context managers: leaving
    the ``with`` block on an exception closes with ``cancel=True``, so
    an interrupted fan-out never strands workers.
    """

    #: Registry name (set by :func:`register_executor`).
    name = "base"
    #: One-line description for ``repro executors``.
    description = ""

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, int(jobs))

    def map(self, worker: Callable, tasks: list, *,
            on_result: "Callable[[int, object], None] | None" = None) -> list:
        """``[worker(t) for t in tasks]``, preserved in task order.

        `on_result` (optional) is called with ``(index, result)`` as
        each task finishes, in *completion* order — the progress-hook
        channel.  A worker exception propagates to the caller;
        remaining work is cancelled via :meth:`close`.
        """
        raise NotImplementedError

    def close(self, *, cancel: bool = False) -> None:
        """Release backend resources; `cancel` terminates live workers."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(cancel=exc_type is not None)

    def _fallback(self, worker, tasks, on_result):
        """In-process degradation path for backends that cannot run."""
        return InProcessExecutor(1).map(worker, tasks, on_result=on_result)


class InProcessExecutor(Executor):
    """Serial in-process execution — the reference backend."""

    name = "inprocess"
    description = "serial in-process loop (reference semantics)"

    def map(self, worker, tasks, *, on_result=None) -> list:
        results = []
        for index, task in enumerate(tasks):
            result = worker(task)
            results.append(result)
            if on_result is not None:
                on_result(index, result)
        return results


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


class ProcessPoolBackend(Executor):
    """The historical ``ProcessPoolExecutor`` fan-out, as one peer.

    Falls back to in-process execution — with identical results — when
    the caller is already a daemonic pool worker (children of children
    are forbidden), the platform cannot build a process pool, or the
    work does not pickle for a spawn-started worker.  A *broken* pool (a
    worker killed by the OS) also degrades to in-process execution of
    the tasks it had not delivered yet; a genuine exception raised by
    `worker` propagates as itself.
    """

    name = "pool"
    description = "local process pool (the historical default)"

    def __init__(self, jobs: int = 1) -> None:
        super().__init__(jobs)
        self._pool: ProcessPoolExecutor | None = None
        self._cancelled = False

    def map(self, worker, tasks, *, on_result=None) -> list:
        if self.jobs <= 1 or len(tasks) <= 1 or _in_daemon():
            return self._fallback(worker, tasks, on_result)
        self._cancelled = False
        delivered: dict = {}
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
            for index, task in enumerate(tasks):
                if index not in delivered:
                    delivered[index] = result = worker(task)
                    if on_result is not None:
                        on_result(index, result)
        except BaseException:
            self.close(cancel=True)
            raise
        finally:
            self.close()
        return [delivered[index] for index in range(len(tasks))]

    def close(self, *, cancel: bool = False) -> None:
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


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

#: canonical name -> backend class (``factory(jobs) -> Executor``).
_REGISTRY: dict[str, Callable[[int], Executor]] = {}


def register_executor(name: str, factory: Callable[[int], Executor], *,
                      replace: bool = False) -> None:
    """Register `factory` (``factory(jobs) -> Executor``) as `name`.

    Mirrors the warm-up method registry contract: re-registering an
    existing name raises unless ``replace=True``.
    """
    if not callable(factory):
        raise TypeError("factory must be a callable accepting a jobs count")
    if not replace and name in _REGISTRY:
        raise ValueError(f"executor {name!r} is already registered; "
                         "pass replace=True to override")
    _REGISTRY[name] = factory


def unregister_executor(name: str) -> None:
    """Remove a registered backend (readable ValueError on unknowns)."""
    _canonical(name)
    del _REGISTRY[name]


def _canonical(name: str) -> str:
    key = name.strip().lower()
    if key in _REGISTRY:
        return key
    known = ", ".join(sorted(_REGISTRY))
    raise ValueError(f"unknown executor {name!r}; known: {known}")


def registered_executor_names() -> list[str]:
    """Canonical backend names currently registered, sorted."""
    return sorted(_REGISTRY)


def executor_factory(name: str) -> Callable[[int], Executor]:
    """The registered factory behind `name`."""
    return _REGISTRY[_canonical(name)]


def resolve_executor(setting: "str | Executor | None" = None, *,
                     jobs: int = 1) -> Executor:
    """Turn an executor setting into a ready :class:`Executor`.

    Precedence: an explicit instance or name wins; otherwise the
    ``REPRO_EXECUTOR`` environment variable; otherwise ``"pool"``.
    Unknown names raise the registry's readable ``ValueError`` (the CLI
    maps it to exit status 2).
    """
    if isinstance(setting, Executor):
        return setting
    if setting is None:
        setting = os.environ.get(EXECUTOR_ENV_VAR, "").strip() or None
    if setting is None:
        setting = DEFAULT_EXECUTOR
    return executor_factory(setting)(jobs)


def describe_executors() -> list[tuple[str, str, str]]:
    """``(name, class, description)`` rows for ``repro executors``."""
    rows = []
    for name in registered_executor_names():
        backend = executor_factory(name)(1)
        rows.append((name, type(backend).__name__, backend.description))
    return rows


for _cls in (InProcessExecutor, ProcessPoolBackend):
    register_executor(_cls.name, _cls)
