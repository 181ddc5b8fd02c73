"""The grid driver: every methods-by-workloads grid runs here.

The evaluation grid behind every figure and table is a (workload x
method) matrix whose cells are mutually independent: each sampled run
builds its own machine, hierarchy, and predictor, and the regimen seed —
not execution order — determines cluster placement.  This module fans
those cells out as small picklable task specs through
:func:`map_tasks` (a process pool; see :mod:`~.executor`) and
deterministically reassembles them into
:class:`~.experiment.WorkloadExperiment` grids: each cell equals a
direct :func:`repro.api.simulate` of the same program, method and
scale, bit for bit, whether a pool worker or the caller ran it.

Two task kinds exist per grid:

- one **true-run** task per workload (the full-trace baseline, shared by
  every method outcome of that workload, and by every grid whose scale
  differs only in placement — see :class:`~.experiment.TrueRunSpec`),
  and
- one **cell** task per (workload, method) pair.

Both are pure functions of their spec, so both are memoised through the
optional on-disk result cache (the ``results`` layer of
:class:`~repro.store.CheckpointStore`); a warm cache turns a grid
into pure deserialisation.  The engine degrades gracefully: ``jobs=1``,
a platform without working process pools, or (under the spawn start
method) an unpicklable method factory all fall back to in-process
serial execution of the same task list (cache and progress reporting
included).
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from ..sampling import (
    SampledRunResult,
    SampledSimulator,
    SimulatorConfigs,
    TrueRunResult,
    resolve_cluster_jobs,
)
from ..telemetry import (
    EMPTY_SNAPSHOT,
    EVENT_CELL,
    RUN_ID_ENV_VAR,
    SPAN_PARENT_ENV_VAR,
    TelemetrySnapshot,
    audit_enabled,
    collection_enabled,
    emit_event,
    events_path_from_env,
    merge_snapshots,
    recorder_from_env,
    spans_enabled,
)
from ..store import CheckpointStore, expect_instance, result_store_key
from ..warmup.base import WarmupCost
from ..workloads import PAPER_WORKLOADS, cached_workload
from .executor import ProcessPool
from .options import available_cpus
from .experiment import (
    ExperimentScale,
    MethodOutcome,
    TrueRunSpec,
    WorkloadExperiment,
    scale_from_env,
)


@dataclass(frozen=True)
class CellSpec:
    """Picklable description of one (workload, method) grid cell."""

    workload_name: str
    method_name: str
    scale: ExperimentScale
    configs: SimulatorConfigs
    #: Shard workers for the two-phase pipeline inside this cell
    #: (1 = the serial walk, which a method that cannot shard always
    #: runs; see repro.sampling.pipeline).
    cluster_jobs: int = 1

    @property
    def kind(self) -> str:
        return "cell"

    def key(self) -> str:
        # Traced and untraced runs are cached under distinct keys: a
        # result computed without telemetry carries no snapshot, and
        # serving it to a traced grid would silently drop that cell from
        # the merged profile (and vice versa would waste snapshot bytes).
        # Audited runs are distinct again — their snapshots carry audit
        # records a merely-traced run lacks.  Sharded runs are distinct
        # too: shards start clusters from reconstruction-only state, so
        # their IPCs legitimately differ from the serial walk's (but the
        # key deliberately ignores *how many* workers sharded a run —
        # any jobs > 1 executes the identical two-phase schedule).
        kind = "cell+telemetry" if collection_enabled() else "cell"
        if audit_enabled():
            kind += "+audit"
        if spans_enabled():
            kind += "+spans"
        if self.cluster_jobs > 1:
            kind += "+shards"
        return result_store_key(kind, self.workload_name, self.scale,
                                self.configs, self.method_name)


@dataclass(frozen=True)
class CellProgress:
    """One progress event, emitted as each task finishes.

    `wall_seconds` is the simulation's own wall time (as recorded in the
    result, independent of pool queueing); `cost` is the run's
    :class:`~..warmup.base.WarmupCost` (None for true-run tasks),
    surfacing reconstruction statistics — log records buffered,
    cache/predictor updates replayed — alongside timing.
    """

    completed: int
    total: int
    kind: str
    workload_name: str
    method_name: str
    wall_seconds: float
    cached: bool
    cost: WarmupCost | None = None

    def describe(self) -> str:
        label = (self.workload_name if self.kind == "true"
                 else f"{self.workload_name} x {self.method_name}")
        origin = "cache" if self.cached else f"{self.wall_seconds:.2f}s"
        line = (f"[{self.completed}/{self.total}] "
                f"{self.kind:<5} {label}: {origin}")
        if self.cost is not None and not self.cached:
            line += (f" (warm updates {self.cost.warm_updates():,}, "
                     f"log records {self.cost.log_records:,})")
        return line


ProgressHook = Callable[[CellProgress], None]


def console_progress(event: CellProgress) -> None:
    """A ready-made progress hook printing one line per finished task."""
    print(event.describe(), flush=True)


class LiveProgress:
    """Streaming progress display: done/total, cells/sec, and ETA.

    On a terminal the line rewrites in place (carriage return); on a
    pipe each update is its own line, so logs stay readable.  Rate and
    ETA count *all* finished tasks (cache hits included) against wall
    time since construction — a warm cache legitimately reads as a very
    fast run.
    """

    def __init__(self, stream=None) -> None:
        self._stream = stream if stream is not None else sys.stdout
        self._start = time.perf_counter()
        self._is_tty = bool(getattr(self._stream, "isatty", lambda: False)())

    def __call__(self, event: CellProgress) -> None:
        elapsed = max(time.perf_counter() - self._start, 1e-9)
        rate = event.completed / elapsed
        left = event.total - event.completed
        eta = left / rate if rate > 0 else 0.0
        percent = 100.0 * event.completed / max(event.total, 1)
        label = (event.workload_name if event.kind == "true"
                 else f"{event.workload_name} x {event.method_name}")
        if event.cached:
            label += " (cache)"
        line = (f"[{event.completed}/{event.total}] {percent:3.0f}% | "
                f"{rate:.2f} cells/s | ETA {eta:.0f}s | {label}")
        if self._is_tty:
            # Pad to erase a longer previous line before rewriting.
            self._stream.write("\r" + line.ljust(78))
            if left == 0:
                self._stream.write("\n")
        else:
            self._stream.write(line + "\n")
        self._stream.flush()


def _run_cell_task(spec: CellSpec, method_factory) -> SampledRunResult:
    """Worker: run one warm-up method on one workload."""
    methods = {method.name: method for method in method_factory()}
    try:
        method = methods[spec.method_name]
    except KeyError:
        known = ", ".join(sorted(methods))
        raise ValueError(
            f"method factory produced no method named "
            f"{spec.method_name!r}; known: {known}"
        ) from None
    workload = cached_workload(spec.workload_name,
                               mem_scale=spec.scale.mem_scale)
    simulator = SampledSimulator(
        workload, spec.scale.regimen(), spec.configs,
        warmup_prefix=spec.scale.warmup_prefix,
        detail_ramp=spec.scale.detail_ramp,
        cluster_jobs=spec.cluster_jobs,
    )
    return simulator.run(method)


@dataclass(frozen=True)
class _MatrixTask:
    """One grid task plus the factory that rebuilds its method suite.

    Bundling the factory into the task (instead of partial-applying it
    into the worker) keeps the fan-out contract uniform — a
    module-level worker function and a list of picklable tasks — so a
    spawn-started pool that cannot pickle the factory falls back to
    in-process execution like any other unpicklable work.
    """

    spec: object
    method_factory: object


def _run_matrix_task(task: _MatrixTask):
    """Worker: one grid task (true-run or cell), in a pool worker or
    in process."""
    if task.spec.kind == "true":
        return task.spec.run()
    return _run_cell_task(task.spec, task.method_factory)


@contextlib.contextmanager
def _propagation_env(span_context, run_id):
    """Plant cross-process observability context for task workers.

    Pool workers inherit the environment at pool creation (fork or
    spawn both copy it), and in-process fallbacks read it live — one
    mechanism covers both execution paths.  Two values ride it: the
    span parent context (:data:`~repro.telemetry.SPAN_PARENT_ENV_VAR`)
    and the correlation id (:data:`~repro.telemetry.RUN_ID_ENV_VAR`).
    ``None`` values are no-ops (an ambient ``REPRO_RUN_ID`` already in
    the environment propagates untouched); previous values are always
    restored.
    """
    plants = {}
    if span_context is not None:
        plants[SPAN_PARENT_ENV_VAR] = span_context.encode()
    if run_id is not None:
        plants[RUN_ID_ENV_VAR] = run_id
    if not plants:
        yield
        return
    previous = {name: os.environ.get(name) for name in plants}
    os.environ.update(plants)
    try:
        yield
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def map_tasks(worker, tasks, jobs: int, span_context=None,
              run_id: "str | None" = None,
              on_result=None) -> list:
    """Order-preserving parallel map: ``[worker(t) for t in tasks]``.

    The one fan-out underneath the grid driver's cells and the
    two-phase pipeline's shard dispatch: a
    :class:`~.executor.ProcessPool` of `jobs` workers, built and closed
    here, whose in-process fallbacks (``jobs <= 1``, a caller that is
    itself a pool worker, a pool-less platform, work a spawn-started
    worker cannot unpickle, a worker that dies) give identical results.
    Results come back in task order, so folds stay deterministic.

    `span_context` (a :class:`~repro.telemetry.SpanContext`) re-parents
    every worker's spans under the caller's open span and onto the run's
    clock origin; it rides the environment so the same propagation works
    in subprocess workers and in-process fallbacks alike.  `run_id`
    rides the same mechanism: ``None`` defers to the ambient
    ``REPRO_RUN_ID`` (the common case — the CLI and the service plant
    it once per run), an explicit value pins the fan-out's correlation
    id for library callers.

    `on_result` is called as ``on_result(index, result)`` from the
    calling thread in completion order, exactly once per index (also
    when a broken pool's remaining tasks re-run in process), so callers
    fold results as they land instead of waiting for the ordered list.

    An interrupted or crashing fan-out closes the pool with
    ``cancel=True`` — pending work is abandoned and live worker
    processes are terminated, never orphaned.
    """
    with _propagation_env(span_context, run_id):
        return ProcessPool(jobs).map(worker, list(tasks),
                                     on_result=on_result)


def merged_telemetry(
    grid: dict[str, WorkloadExperiment],
) -> TelemetrySnapshot:
    """Fold every cell's telemetry snapshot into one run-level profile.

    Each traced sampled run carries a picklable
    :class:`~repro.telemetry.TelemetrySnapshot` in
    ``SampledRunResult.extra`` — it crosses the worker process boundary
    with the result, so merging here yields exactly the totals a serial
    run of the same grid would accumulate (counters and phase seconds
    sum; trace records are re-sorted into deterministic order).

    Always returns a snapshot: an untraced grid — or one with zero
    successful cells — folds to the shared
    :data:`~repro.telemetry.EMPTY_SNAPSHOT` sentinel (falsy, read-only),
    so callers can iterate or merge without a None guard and use plain
    truthiness to decide whether anything was collected.
    """
    merged = merge_snapshots(
        outcome.run.extra.get("telemetry")
        for experiment in grid.values()
        for outcome in experiment.outcomes.values()
    )
    return EMPTY_SNAPSHOT if merged is None else merged


def matrix_specs(
    methods: list,
    workload_names: Iterable[str],
    scale: ExperimentScale,
    configs: SimulatorConfigs,
    cluster_jobs: int = 1,
) -> list:
    """The full deterministic task list for one grid (true runs first).

    A method that is not :attr:`~..warmup.base.WarmupMethod.shardable`
    runs the serial walk whatever `cluster_jobs` asks, so its cells
    carry 1 and share the serial grid's keys.
    """
    specs: list = [
        TrueRunSpec.of(name, scale, configs) for name in workload_names
    ]
    specs.extend(
        CellSpec(workload_name=workload_name, method_name=method.name,
                 scale=scale, configs=configs,
                 cluster_jobs=cluster_jobs if method.shardable else 1)
        for workload_name in workload_names
        for method in methods
    )
    return specs


def execute_matrix(
    method_factory,
    workload_names: tuple[str, ...] = PAPER_WORKLOADS,
    scale: ExperimentScale | None = None,
    configs: SimulatorConfigs | None = None,
    jobs: int | None = None,
    cache: CheckpointStore | None = None,
    progress: ProgressHook | None = None,
    cluster_jobs: int = 1,
) -> dict[str, WorkloadExperiment]:
    """Run a methods-by-workloads grid through :func:`map_tasks`.

    The one grid driver (``repro matrix``, ``repro reproduce``, the
    benches and :func:`repro.api.run_matrix` all call it).
    `method_factory` is a zero-argument callable returning fresh
    methods; every cell builds its own simulator from the scale's
    regimen seed, so cluster IPCs and estimates are bit-identical
    whichever process runs the cells.  The placement seed is
    ``scale.seed``: grids over ``dataclasses.replace(scale, seed=k)``
    get distinct cell keys but share one true run per program.

    Parameters
    ----------
    jobs:
        Worker parallelism; ``None`` means one per available CPU.  ``1
        executes in-process (no pool, no pickling requirements).
    cache:
        Optional result cache (entries of kind ``results``); hits skip
        execution entirely and count toward progress as ``cached``
        events.
    progress:
        Optional hook called with a :class:`CellProgress` per finished
        task, in completion order.
    cluster_jobs:
        Shard workers for the two-phase pipeline *inside* each cell
        (see :mod:`repro.sampling.pipeline`; ``0`` = one per CPU,
        resolved before any cell key is built); with ``jobs > 1`` the
        cells themselves already occupy the CPUs, so shard fan-out
        inside pool workers degrades to in-process execution with
        identical results.
    """
    scale = scale if scale is not None else scale_from_env()
    configs = configs if configs is not None else scale.configs()
    if jobs is None:
        jobs = available_cpus()
    # A cell key records whether its run is sharded, so 0 ("one per
    # CPU") must become the count the simulator will use first.
    cluster_jobs = resolve_cluster_jobs(cluster_jobs)
    methods = list(method_factory())
    specs = matrix_specs(methods, workload_names, scale, configs,
                         cluster_jobs=cluster_jobs)

    # The matrix driver's own span recorder: the "matrix" span is the
    # trace root every cell's "run" span parents under (the context
    # rides the environment into pool workers and in-process cells
    # alike); cache lookup/store get their own spans so a warm cache is
    # visible on the timeline.  Null when REPRO_SPANS is off.
    recorder = recorder_from_env()
    events_path = events_path_from_env()

    results: dict = {}
    completed = 0

    def emit(spec, result, cached: bool) -> None:
        nonlocal completed
        completed += 1
        emit_event(
            events_path,
            EVENT_CELL,
            completed=completed,
            total=len(specs),
            kind=spec.kind,
            workload=spec.workload_name,
            method=spec.method_name,
            cached=cached,
            wall_seconds=0.0 if cached else result.wall_seconds,
        )
        if progress is None:
            return
        progress(CellProgress(
            completed=completed,
            total=len(specs),
            kind=spec.kind,
            workload_name=spec.workload_name,
            method_name=spec.method_name,
            wall_seconds=0.0 if cached else result.wall_seconds,
            cached=cached,
            cost=getattr(result, "cost", None),
        ))

    with recorder.span("matrix", cells=len(specs), jobs=jobs,
                       cluster_jobs=cluster_jobs):
        pending = []
        with recorder.span("cache_lookup", cat="cache"):
            for spec in specs:
                if cache is not None:
                    expected = (TrueRunResult if spec.kind == "true"
                                else SampledRunResult)
                    hit = cache.get(spec.key(), "results",
                                    validate=expect_instance(expected))
                    if hit is not None:
                        results[spec] = hit
                        emit(spec, hit, cached=True)
                        continue
                pending.append(spec)

        if pending:
            tasks = [_MatrixTask(spec, method_factory) for spec in pending]

            def on_result(index: int, result) -> None:
                spec = pending[index]
                results[spec] = result
                emit(spec, result, cached=False)

            map_tasks(_run_matrix_task, tasks, jobs,
                      span_context=(recorder.context()
                                    if recorder.enabled else None),
                      on_result=on_result)
            if cache is not None:
                with recorder.span("cache_store", cat="cache",
                                   entries=len(pending)):
                    for spec in pending:
                        cache.put(spec.key(), results[spec], "results")
    recorder.flush()

    grid: dict[str, WorkloadExperiment] = {}
    for spec in specs:
        if spec.kind == "true":
            grid[spec.workload_name] = WorkloadExperiment(
                workload_name=spec.workload_name, true_run=results[spec])
            continue
        experiment = grid[spec.workload_name]
        experiment.outcomes[spec.method_name] = MethodOutcome(
            run=results[spec], true_ipc=experiment.true_run.ipc
        )
    return grid
