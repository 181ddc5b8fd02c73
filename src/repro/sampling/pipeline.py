"""Two-phase execution pipeline: cold scan + cluster-sharded hot simulation.

The classic controller loop (:func:`run_serial`) interleaves three kinds
of work per cluster — cold functional skip, reconstruction, detailed
timing — on one continuously evolving simulator.  Only the detailed
timing is expensive, and for Reverse State Reconstruction it depends on
nothing but (a) the architectural state at cluster entry and (b) the
just-logged gap: exactly the locality the paper's §3 design buys.  The
two-phase pipeline (:func:`run_sharded`) exploits it.  Both strategies
run the same per-cluster body (:class:`_ClusterStep`: reconstruct, the
timed cluster, the cluster's trace record) inside the same run frame
(:class:`_RunFrame`); they differ only in how a cluster's entry state is
produced — by the serial walk's own skip, or by a restored checkpoint:

- **Phase A — cold scan** (serial, fast): walk the regimen once doing
  cold functional simulation only.  For every cluster, skip the gap with
  the method's logging hooks, capture a picklable
  :class:`~repro.functional.FunctionalCheckpoint`, detach the gap's
  filled :class:`~repro.core.source.ReconstructionSource`, and advance
  the machine cold across the cluster region.  Each cluster becomes one
  :class:`ClusterShard`.
- **Phase B — hot shards** (parallel): each shard independently restores
  its checkpoint onto a fresh simulator stack, adopts the gap source,
  runs the cluster step, and returns its IPC, cost deltas, and
  telemetry snapshot (a worker's session is live exactly when the run's
  is; the run's session absorbs each snapshot).  The shards are
  dealt round-robin into one :class:`ShardTask` per worker
  (``REPRO_CLUSTER_JOBS`` / ``--cluster-jobs``), so the workload, configs
  and method travel once per worker rather than once per cluster, and
  each checkpoint carries only the memory words that differ from the
  workload's initial image.  Tasks fan out over
  :func:`repro.harness.parallel.map_tasks` (forked pool workers inherit
  them; spawn-started ones receive them pickled) and fold back through a
  **streaming fold**: each finished task's results are consumed via the
  fan-out's ``on_result`` callback in completion order and folded
  deterministically in cluster order with a pending-heap
  (:class:`_ShardFold`), so each cluster's trace/audit records land as
  soon as every earlier cluster has — no barrier, identical results
  whatever order tasks finish.

Phase A is additionally **read-through** against the optional
:class:`~repro.store.CheckpointStore` (``REPRO_CHECKPOINT_STORE`` /
``--store``): on a store hit the shards materialise from disk — after a
digest + geometry cross-check proving they match what a live scan would
produce — without executing the cold scan or the warm-up prefix; on a
miss the scan runs as usual and its shards are captured into the store
for the next run.  Store hits are bit-identical to cold runs by
construction (the shards *are* the cold scan's output), which is what
makes core-parameter sweeps O(sampled instructions).

Exactness: architectural state in every shard is exact by construction
(the checkpoint), so cluster positions, gap logs, and instruction counts
match the serial walk bit for bit (the fold asserts the counts).  What a
shard cannot reproduce is the *stale* microarchitectural state a serial
run carries into each cluster underneath the method's reconstruction —
shards start from empty caches/predictors plus the reconstruction alone.
The residual per-cluster IPC bias is measured, not assumed: the
``REPRO_AUDIT`` probes ride into the shard workers with per-cluster
reference states, so audit records attribute it exactly as in serial
runs.  Methods that warm continuously across cluster boundaries (SMARTS,
fixed period, MRRL/BLRL) declare ``shardable = False`` and stay serial.
"""

from __future__ import annotations

import dataclasses
import heapq
import os
import pickle
import time
from dataclasses import dataclass, field

from ..functional import FunctionalCheckpoint, FunctionalMachine
from ..store.checkpoint import resolve_store, shard_store_key
from ..telemetry import (
    NULL_TELEMETRY,
    PHASE_AUDIT,
    PHASE_COLD_SKIP,
    PHASE_HOT_SIM,
    PHASE_RECONSTRUCT,
    RECORD_RUN_END,
    RECORD_RUN_START,
    SpanContext,
    SpanRecorder,
    Telemetry,
    TelemetrySnapshot,
    audit_enabled,
)
from ..warmup.base import SimulationContext
from .controller import (
    SampledRunResult, SampledSimulator, WarmState, build_simulation,
)
from .statistics import cluster_estimate

#: Environment variable resolved when ``SampledSimulator.cluster_jobs``
#: is None: shard workers for the two-phase pipeline (1 = serial,
#: 0 = one worker per CPU).
CLUSTER_JOBS_ENV_VAR = "REPRO_CLUSTER_JOBS"


def resolve_cluster_jobs(explicit: int | None = None) -> int:
    """Effective shard-worker count: explicit setting, else the env var.

    ``0`` means one worker per CPU; anything below zero (or a
    non-integer environment value) raises ``ValueError`` so the CLI can
    exit 2 with a readable message.
    """
    if explicit is None:
        raw = os.environ.get(CLUSTER_JOBS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            explicit = int(raw)
        except ValueError:
            raise ValueError(
                f"{CLUSTER_JOBS_ENV_VAR} must be an integer "
                f"(got {raw!r})"
            ) from None
    jobs = int(explicit)
    if jobs < 0:
        raise ValueError(
            f"cluster jobs must be >= 0 (0 = one per CPU), got {jobs}"
        )
    if jobs == 0:
        # Lazy: the harness package imports sampling at top level.
        from ..harness.options import available_cpus

        jobs = available_cpus()
    return jobs


def cluster_geometry(position: int, cluster_start: int,
                     detail_ramp: int) -> tuple[int, int]:
    """The controller's ramp-borrowing arithmetic for one cluster.

    The detailed ramp borrows its instructions from the end of the gap
    so cluster positions stay comparable across methods; returns
    ``(ramp, gap)``.  Single-sourced here so the serial walk, the cold
    scan, and the stored-shard validation can never drift apart.
    """
    ramp = min(detail_ramp, max(0, cluster_start - position))
    gap = cluster_start - position - ramp
    return ramp, gap


# ---------------------------------------------------------------------------
# shard data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterShard:
    """Phase A's hand-off for one cluster: everything Phase B needs.

    `checkpoint` is the architectural state at cluster entry (before the
    detailed ramp); `source` is the gap's filled reconstruction source,
    telemetry-stripped for pickling; `skip_cost` carries the gap's
    cold-scan cost deltas (functional instructions, log records) so the
    shard's trace record shows the same per-cluster totals as a serial
    run; `cold_instructions` is how far the cold scan advanced across
    the cluster region — the fold cross-checks the shard retired exactly
    that many.
    """

    index: int
    cluster_start: int
    gap: int
    ramp: int
    checkpoint: FunctionalCheckpoint
    source: object
    skip_cost: dict = field(default_factory=dict)
    cold_instructions: int = 0
    #: Single-state reference trajectory for the audit probe, or None
    #: when auditing is off for this run.
    audit_slice: object = None


@dataclass(frozen=True)
class ShardTask:
    """Picklable unit of Phase B work: one worker's share of the shards.

    The run-wide inputs travel once per task; every shard's checkpoint is
    relative to ``workload.memory``.
    """

    workload: object
    configs: object
    regimen: object
    #: One unbound method clone, pickled once per run and shared by
    #: every task; each shard unpickles a private copy.
    method_blob: bytes
    shards: tuple[ClusterShard, ...]
    #: The run's open phase_b span, or None when the run's session is
    #: the null one: a worker opens a live session exactly when this is
    #: set, and the parent absorbs its snapshot.
    span_context: SpanContext | None = None


@dataclass(frozen=True)
class ShardResult:
    """What one shard sends back for the deterministic fold."""

    index: int
    ipc: float
    instructions: int
    #: The worker-side WarmupCost as a dict: reconstruction updates,
    #: on-demand counter writes, hot instructions.  Skip-side cost lives
    #: on the parent's method already.
    cost_delta: dict
    snapshot: TelemetrySnapshot | None = None


# ---------------------------------------------------------------------------
# the run frame and the cluster step (shared by both strategies)
# ---------------------------------------------------------------------------


def _bind(method, stack, regimen, telemetry) -> None:
    """Bind `method` to `stack` under `telemetry`."""
    method.bind(SimulationContext(
        machine=stack.machine,
        hierarchy=stack.hierarchy,
        predictor=stack.predictor,
        regimen=regimen,
        telemetry=telemetry,
    ))


class _RunFrame:
    """What both strategies do around their cluster walk.

    Construction resolves the run's telemetry session, records
    ``run_start`` and opens the ``run`` span; :meth:`begin` binds the
    method and starts the wall clock; :meth:`finish` closes the span,
    sets the run gauges, records ``run_end``, then snapshots and flushes
    the session and builds the :class:`SampledRunResult`.  `facts`
    (``cluster_jobs`` for the sharded strategy) ride the ``run_start``
    record and the ``run`` span and become ``run.<fact>`` gauges.
    """

    def __init__(self, simulator, method, strategy: str, **facts) -> None:
        self.simulator = simulator
        self.method = method
        self.telemetry = telemetry = simulator._telemetry_session()
        self._strategy = strategy
        self._facts = facts
        self._start_time = 0.0
        telemetry.spans.mark(
            RECORD_RUN_START, workload=simulator.workload.name,
            method=method.name, strategy=strategy, **facts)
        self._span = telemetry.span(
            "run", workload=simulator.workload.name, method=method.name,
            strategy=strategy, **facts,
        )
        self._span.__enter__()

    def begin(self, stack, audit: bool = True):
        """Bind the method to `stack` and start the run's wall clock.

        Returns the ``REPRO_AUDIT`` reference trajectory, or None.  The
        reference is imported lazily (the analysis package depends on
        the controller) and resolved per run, so the audit-off hot path
        pays one env check.  Audit data rides the telemetry session; with
        the null session there is nowhere to put it, so there is none.
        """
        simulator = self.simulator
        telemetry = self.telemetry
        _bind(self.method, stack, simulator.regimen, telemetry)
        trajectory = None
        if audit and audit_enabled() and telemetry.enabled:
            from ..analysis.audit import reference_trajectory_for

            trajectory = reference_trajectory_for(
                simulator.workload, simulator.regimen, simulator.configs,
                warmup_prefix=simulator.warmup_prefix,
                detail_ramp=simulator.detail_ramp,
            )
        self._start_time = time.perf_counter()
        return trajectory

    def finish(self, cluster_ipcs: list[float], **extra) -> SampledRunResult:
        """Close the run; `extra` lands in ``SampledRunResult.extra``."""
        simulator = self.simulator
        method = self.method
        telemetry = self.telemetry
        self._span.__exit__(None, None, None)
        wall_seconds = time.perf_counter() - self._start_time
        extra = {"harmonic_mean_ipc": _harmonic_mean(cluster_ipcs),
                 "warmup_prefix": simulator.warmup_prefix, **extra}
        if telemetry.enabled:
            telemetry.set_gauge("run.wall_seconds", wall_seconds)
            telemetry.set_gauge("run.clusters", len(cluster_ipcs))
            for name, value in self._facts.items():
                telemetry.set_gauge(f"run.{name}", value)
            telemetry.spans.mark(
                RECORD_RUN_END, workload=simulator.workload.name,
                method=method.name, strategy=self._strategy,
                clusters=len(cluster_ipcs), wall_seconds=wall_seconds)
            extra["telemetry"] = telemetry.snapshot()
            telemetry.flush()
        return SampledRunResult(
            workload_name=simulator.workload.name,
            method_name=method.name,
            regimen=simulator.regimen,
            cluster_ipcs=cluster_ipcs,
            estimate=cluster_estimate(cluster_ipcs),
            cost=method.cost,
            wall_seconds=wall_seconds,
            extra=extra,
        )


class _ClusterStep:
    """One cluster of the paper's Figure 1 loop, for either strategy.

    The serial walk calls one step per cluster on its continuously
    evolving stack; a Phase B shard calls one on the stack it restored
    from the cluster's checkpoint.  `observer` is the cluster-entry hook
    (see :func:`run_serial`); its work is charged to the ``audit`` phase.
    """

    def __init__(self, telemetry, method, stack, regimen, workload_name,
                 observer=None) -> None:
        self.telemetry = telemetry
        self.method = method
        self.stack = stack
        self.cluster_size = regimen.cluster_size
        self.workload_name = workload_name
        self.observer = observer

    def __call__(self, index: int, start: int, gap: int, ramp: int,
                 skip_cost: dict | None = None):
        """Simulate cluster `index`; returns its timing result.

        With `skip_cost` None the gap is skipped here first (the serial
        walk).  A shard passes the cost deltas of Phase A's skip of the
        gap instead, so its trace record shows the same per-cluster
        totals as a serial run's.
        """
        telemetry = self.telemetry
        method = self.method
        stack = self.stack
        observer = self.observer
        cost = method.cost
        traced = telemetry.enabled
        if traced:
            telemetry.begin_cluster()
            cost_before = cost.as_dict()
        # In a shard this is the worker's root span: its parent (the
        # run's phase_b span) and the run clock origin arrive in the
        # task's span context, so the subtree lands directly inside the
        # run's trace when the parent absorbs the worker's snapshot.
        with telemetry.span(f"cluster {index}", cluster=index):
            if skip_cost is None:
                with telemetry.phase(PHASE_COLD_SKIP):
                    if gap > 0:
                        method.skip(gap)
            with telemetry.phase(PHASE_RECONSTRUCT):
                hook = method.pre_cluster()
            if observer is not None:
                with telemetry.phase(PHASE_AUDIT):
                    observer.before_cluster(index, method, stack, ramp)
            with telemetry.phase(PHASE_HOT_SIM):
                result = stack.timing.run(
                    self.cluster_size + ramp, pre_branch_hook=hook,
                    measure_after=ramp,
                )
            with telemetry.phase(PHASE_RECONSTRUCT):
                method.post_cluster()
            # The hot cluster fetched instruction blocks outside
            # machine.run, so the ifetch-continuity marker no longer
            # names the last block the caches saw; drop it so the next
            # skip re-reports its first block (and logs stay identical
            # to the sharded cold scan).
            stack.machine.invalidate_fetch_block()
            cost.hot_instructions += result.instructions
            if observer is not None:
                # Emitted before end_cluster so the audit record sorts
                # (stably) ahead of its cluster record after any merge.
                with telemetry.phase(PHASE_AUDIT):
                    observer.after_cluster(index, method, result.ipc)
            if traced:
                cost_now = cost.as_dict()
                skipped = skip_cost or {}
                deltas = {
                    name: (cost_now[name] - cost_before[name]
                           + skipped.get(name, 0))
                    for name in cost_now
                }
                telemetry.observe("cluster.ipc", result.ipc)
                telemetry.observe("cluster.gap", gap)
                telemetry.end_cluster({
                    "workload": self.workload_name,
                    "method": method.name,
                    "cluster": index,
                    "start": start,
                    "gap": gap,
                    "ramp": ramp,
                    "instructions": result.instructions,
                    "ipc": result.ipc,
                    "warm_updates": (deltas["cache_updates"]
                                     + deltas["predictor_updates"]),
                    **deltas,
                })
        return result


# ---------------------------------------------------------------------------
# serial strategy (reference semantics)
# ---------------------------------------------------------------------------


def run_serial(simulator, method, observer=None) -> SampledRunResult:
    """The continuous serial walk (the paper's Figure 1 loop).

    Cache and branch-predictor state flow continuously through the whole
    run; this is the reference semantics every other strategy is
    measured against.

    `observer` is the walk's one cluster-entry hook: its
    ``before_cluster(index, method, stack, ramp)`` runs after the
    method's ``pre_cluster()``, just before the cluster's detailed ramp
    and simulation, and
    its ``after_cluster(index, method, ipc)`` once the cluster's IPC is
    known.  The audit probe, the audit reference trajectory and
    live-points generation are observers (:func:`record_cluster_entries`).
    With no observer, ``REPRO_AUDIT`` attaches the audit probe.
    """
    frame = _RunFrame(simulator, method, "serial")
    telemetry = frame.telemetry
    stack = build_simulation(simulator.workload, simulator.configs)
    with telemetry.phase("prefix"):
        stack.warm_prefix(simulator.warmup_prefix)
    trajectory = frame.begin(stack, audit=observer is None)
    if trajectory is not None:
        from ..analysis.audit import AuditProbe

        observer = AuditProbe(trajectory, telemetry)
    step = _ClusterStep(telemetry, method, stack, simulator.regimen,
                        simulator.workload.name, observer)
    detail_ramp = simulator.detail_ramp
    cluster_ipcs: list[float] = []
    position = 0
    for index, cluster_start in enumerate(simulator.regimen.cluster_starts()):
        ramp, gap = cluster_geometry(position, cluster_start, detail_ramp)
        result = step(index, cluster_start, gap, ramp)
        position = cluster_start - ramp + result.instructions
        cluster_ipcs.append(result.ipc)
    return frame.finish(cluster_ipcs)


@dataclass(frozen=True)
class ClusterEntry:
    """The serial walk at one cluster entry: its state and the cluster's IPC.

    `state` is captured after the method's ``pre_cluster()`` with pending
    on-demand repairs finalised (behaviour-neutral: they are exactly what
    the cluster's probes would reconstruct), so it is the state the
    cluster's detailed ramp and simulation consume.  `ramp` is the
    detailed ramp :func:`cluster_geometry` gave the cluster: replaying
    the entry runs ``ramp`` unmeasured instructions before the cluster.
    """

    cluster_index: int
    start: int
    ramp: int
    state: WarmState
    ipc: float


class _EntryRecorder:
    """Cluster-entry observer capturing a :class:`ClusterEntry` per cluster."""

    def __init__(self, starts) -> None:
        self.starts = starts
        self.entries: list[ClusterEntry] = []
        self._state = None
        self._ramp = 0

    def before_cluster(self, index: int, method, stack, ramp: int) -> None:
        method.finalize_pending()
        self._state = WarmState.capture(stack)
        self._ramp = ramp

    def after_cluster(self, index: int, method, ipc: float) -> None:
        self.entries.append(ClusterEntry(
            cluster_index=index, start=self.starts[index], ramp=self._ramp,
            state=self._state, ipc=ipc))


def record_cluster_entries(workload, regimen, configs, method,
                           warmup_prefix: int = 0,
                           detail_ramp: int = 0) -> tuple[ClusterEntry, ...]:
    """Run `method`'s serial walk and capture every cluster entry.

    The walk runs on the null telemetry session, so it emits no spans,
    events or records (and attaches no audit probe).  The audit
    reference trajectory is this walk of SMARTS; a live-points library
    is this walk of its generating method.
    """
    simulator = SampledSimulator(
        workload, regimen, configs, warmup_prefix=warmup_prefix,
        detail_ramp=detail_ramp, telemetry=NULL_TELEMETRY,
    )
    recorder = _EntryRecorder(regimen.cluster_starts())
    run_serial(simulator, method, observer=recorder)
    return tuple(recorder.entries)


# ---------------------------------------------------------------------------
# two-phase sharded strategy
# ---------------------------------------------------------------------------


def run_sharded(simulator, method, jobs: int) -> SampledRunResult:
    """Phase A cold scan, Phase B parallel hot shards, deterministic fold.

    Requires ``method.shardable``; the caller
    (:meth:`~repro.sampling.controller.SampledSimulator.run`) enforces
    that and the serial fallback for everything else.
    """
    configs = simulator.configs
    store, store_key = _shard_store_for(simulator, method)
    frame = _RunFrame(simulator, method, "sharded", cluster_jobs=jobs)
    telemetry = frame.telemetry

    # Read-through: a validated store hit replaces the entire cold scan
    # (including the warm-up prefix — the stored checkpoints already
    # embody it); any corruption or geometry mismatch degrades to the
    # live scan below.
    stored_shards = None
    if store is not None:
        stored_shards = _load_stored_shards(store, store_key, simulator,
                                            telemetry)

    stack = build_simulation(simulator.workload, configs)
    machine = stack.machine
    if stored_shards is None:
        with telemetry.phase("prefix"):
            stack.warm_prefix(simulator.warmup_prefix)
    # The clone template is pickled before bind, while the method holds
    # configuration only; every shard worker unpickles a private copy
    # and binds it to its own context.
    method_blob = pickle.dumps(method.clone_unbound())
    trajectory = frame.begin(stack)
    audit_slices = None
    if trajectory is not None:
        from ..analysis.audit import ReferenceTrajectory

        # Each shard receives only its own cluster's reference state,
        # wrapped as a single-state trajectory (the probe keys states by
        # cluster index, not position).
        audit_slices = {
            state.cluster_index: ReferenceTrajectory(
                workload_name=trajectory.workload_name,
                true_ipc=trajectory.true_ipc,
                states=(state,),
            )
            for state in trajectory.states
        }

    cluster_size = simulator.regimen.cluster_size
    detail_ramp = simulator.detail_ramp
    cost = method.cost

    # -- Phase A: read-through cold scan, one ClusterShard per cluster ----
    if stored_shards is not None:
        # Store hit: materialise the shards without executing anything.
        # The parent cost ledger replays the stored per-cluster cold-scan
        # deltas, so `WarmupCost` is bit-identical to a live scan's.
        with telemetry.span("phase_a", cat="phase", store="hit"):
            shards = _materialize_shards(stored_shards, audit_slices, cost)
    else:
        phase_a_span = telemetry.span("phase_a", cat="phase")
        phase_a_span.__enter__()
        shards = []
        position = 0
        for index, cluster_start in enumerate(
                simulator.regimen.cluster_starts()):
            ramp, gap = cluster_geometry(position, cluster_start,
                                         detail_ramp)
            functional_before = cost.functional_instructions
            records_before = cost.log_records
            with telemetry.span(f"cluster {index}", cluster=index), \
                    telemetry.phase(PHASE_COLD_SKIP):
                if gap > 0:
                    method.skip(gap)
                position = cluster_start - ramp
                checkpoint = FunctionalCheckpoint.capture(
                    machine, simulator.workload.memory)
                source = method.detach_source()
                # Advance cold across the cluster region the shard will
                # simulate in detail; hook-less execution invalidates the
                # ifetch marker itself, but do it explicitly so a halted
                # machine behaves like the serial walk too.
                cold = machine.run(cluster_size + ramp)
                machine.invalidate_fetch_block()
            position += cold
            shards.append(ClusterShard(
                index=index,
                cluster_start=cluster_start,
                gap=gap,
                ramp=ramp,
                checkpoint=checkpoint,
                source=source,
                skip_cost={
                    "functional_instructions":
                        cost.functional_instructions - functional_before,
                    "log_records": cost.log_records - records_before,
                },
                cold_instructions=cold,
                audit_slice=(audit_slices.get(index)
                             if audit_slices is not None else None),
            ))
        phase_a_span.__exit__(None, None, None)
        if store is not None:
            _capture_shards(store, store_key, shards, simulator, telemetry)

    # -- Phase B: hot shards in parallel ----------------------------------
    # Lazy: harness.parallel imports the sampling package at top level.
    from ..harness.parallel import map_tasks

    # One task per worker, shards dealt round-robin: a spawn-started
    # worker unpickles the run-wide inputs once, not once per cluster.
    # The tasks are built while phase_b is open, so the span context
    # they carry (parent id + run clock origin) re-parents the workers'
    # cluster spans under it.  The fold is streaming: each finished task
    # lands through `on_result` and folds (deterministic cluster order,
    # pending-heap) while other tasks still execute.
    workers = min(jobs, len(shards))
    fold = _ShardFold(shards, cost, telemetry)
    with telemetry.span("phase_b", cat="phase"):
        tasks = [
            ShardTask(
                workload=simulator.workload,
                configs=configs,
                regimen=simulator.regimen,
                method_blob=method_blob,
                shards=tuple(shards[offset::workers]),
                span_context=telemetry.spans.context(),
            )
            for offset in range(workers)
        ]
        map_tasks(run_shards, tasks, jobs, on_result=fold.on_result)
    fold.finish()
    extra = {"sharded": True, "cluster_jobs": jobs}
    if store is not None:
        extra["checkpoint_store"] = ("hit" if stored_shards is not None
                                     else "miss")
    return frame.finish(fold.cluster_ipcs, **extra)


def run_shards(task: ShardTask) -> list[ShardResult]:
    """Phase B worker: every shard of one task, in task order.

    Module-level and driven purely by the picklable `task`, so it runs
    identically in a pool worker or in-process (the fallback when no
    pool is available — e.g. sharding inside a matrix worker).
    """
    return [run_shard(task, shard) for shard in task.shards]


def run_shard(task: ShardTask, shard: ClusterShard) -> ShardResult:
    """One cluster, restored from its shard onto a fresh stack."""
    telemetry = NULL_TELEMETRY
    if task.span_context is not None:
        telemetry = Telemetry(
            spans=SpanRecorder(context=task.span_context))
    machine = shard.checkpoint.restore(
        FunctionalMachine(task.workload.program), task.workload.memory)
    stack = build_simulation(task.workload, task.configs, machine=machine)
    method = pickle.loads(task.method_blob)
    _bind(method, stack, task.regimen, telemetry)
    method.adopt_source(shard.source)
    observer = None
    if shard.audit_slice is not None:
        from ..analysis.audit import AuditProbe

        observer = AuditProbe(shard.audit_slice, telemetry)
    step = _ClusterStep(telemetry, method, stack, task.regimen,
                        task.workload.name, observer)
    result = step(shard.index, shard.cluster_start, shard.gap, shard.ramp,
                  skip_cost=shard.skip_cost)
    return ShardResult(
        index=shard.index,
        ipc=result.ipc,
        instructions=result.instructions,
        cost_delta=method.cost.as_dict(),
        snapshot=telemetry.snapshot(),
    )


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _harmonic_mean(cluster_ipcs: list[float]) -> float:
    """Instruction-weighted (harmonic / CPI-based) diagnostic estimate.

    The paper's estimator is the plain mean of cluster IPCs, which is
    what ``SampledRunResult.estimate`` reports.  A zero-cluster regimen
    (or any zero-IPC cluster) has no meaningful harmonic mean.
    """
    if cluster_ipcs and all(ipc > 0 for ipc in cluster_ipcs):
        return len(cluster_ipcs) / sum(1.0 / ipc for ipc in cluster_ipcs)
    return 0.0


# ---------------------------------------------------------------------------
# checkpoint-store read-through (Phase A)
# ---------------------------------------------------------------------------


def _shard_store_for(simulator, method):
    """``(store, key)`` for this run, or ``(None, None)``.

    Both conditions must hold: a store is configured
    (``REPRO_CHECKPOINT_STORE``) *and* the method declares a storable
    identity (:meth:`~repro.warmup.base.WarmupMethod.store_identity` —
    None for methods whose Phase A output depends on unserialisable
    state, e.g. a callable source factory).
    """
    store = resolve_store()
    if store is None:
        return None, None
    identity = method.store_identity()
    if identity is None:
        return None, None
    key = shard_store_key(
        simulator.workload, simulator.regimen, simulator.configs,
        warmup_prefix=simulator.warmup_prefix,
        detail_ramp=simulator.detail_ramp,
        method_identity=identity,
    )
    return store, key


def _load_stored_shards(store, key, simulator, telemetry):
    """Validated stored shards for this run, or None (→ live scan).

    Beyond the store's own digest/manifest cross-check, the store runs
    :func:`_validate_stored_shards` on the unpickled shard list, so a
    stale or mismatched entry degrades to a counted corrupt miss and can
    never silently replace a cold scan.
    """
    starts = [int(start) for start in simulator.regimen.cluster_starts()]
    expect = {"clusters": len(starts), "cluster_starts": starts}
    base_words = simulator.workload.memory.footprint_words()

    def validate(stored):
        return _validate_stored_shards(stored, starts, simulator.detail_ramp,
                                       base_words)

    with telemetry.span("store_lookup", cat="cache", kind="shards"):
        return store.get(key, kind="shards", expect=expect,
                         validate=validate)


def _validate_stored_shards(stored, starts, detail_ramp, base_words):
    """None when `stored` fits this run, else the first mismatch.

    Every shard must sit exactly where :func:`cluster_geometry` places
    it given the previous shards' cold advances, and every checkpoint
    must be relative to a base image of the workload's word count.
    """
    if not isinstance(stored, (list, tuple)):
        return f"expected a shard list, got {type(stored).__name__}"
    if len(stored) != len(starts):
        return (f"{len(stored)} shards stored but the regimen has "
                f"{len(starts)} clusters")
    position = 0
    for index, (shard, cluster_start) in enumerate(zip(stored, starts)):
        ramp, gap = cluster_geometry(position, cluster_start, detail_ramp)
        if (getattr(shard, "index", None) != index
                or getattr(shard, "cluster_start", None) != cluster_start
                or getattr(shard, "gap", None) != gap
                or getattr(shard, "ramp", None) != ramp):
            return f"shard {index} geometry does not match the regimen"
        checkpoint_base = getattr(getattr(shard, "checkpoint", None),
                                  "base_words", None)
        if checkpoint_base != base_words:
            return (f"shard {index} checkpoint is relative to a "
                    f"{checkpoint_base}-word base image but the workload's "
                    f"initial memory has {base_words} words")
        position = cluster_start - ramp + shard.cold_instructions
    return None


def _materialize_shards(stored, audit_slices, cost):
    """Stored shards re-armed for this run.

    Replays each shard's cold-scan cost deltas into the parent ledger —
    ``WarmupCost`` stays bit-identical to a live scan's — and attaches
    this run's audit slices (shards are captured audit-stripped; the
    reference trajectory is core-config-dependent and rides separately).
    """
    shards = []
    for shard in stored:
        cost.functional_instructions += shard.skip_cost.get(
            "functional_instructions", 0)
        cost.log_records += shard.skip_cost.get("log_records", 0)
        if audit_slices is not None:
            shard = dataclasses.replace(
                shard, audit_slice=audit_slices.get(shard.index))
        elif shard.audit_slice is not None:
            shard = dataclasses.replace(shard, audit_slice=None)
        shards.append(shard)
    return shards


def _capture_shards(store, key, shards, simulator, telemetry):
    """Persist a live scan's shards (audit-stripped) for future runs.

    A failed write is the store's warn-once note; the run proceeds with
    its in-memory shards.
    """
    starts = [int(start) for start in simulator.regimen.cluster_starts()]
    stored = [dataclasses.replace(shard, audit_slice=None)
              for shard in shards]
    meta = {
        "workload": simulator.workload.name,
        "clusters": len(starts),
        "cluster_starts": starts,
        "warmup_prefix": int(simulator.warmup_prefix),
        "detail_ramp": int(simulator.detail_ramp),
        "cold_instructions": int(sum(s.cold_instructions for s in shards)),
    }
    with telemetry.span("store_capture", cat="cache", kind="shards"):
        store.put(key, stored, kind="shards", meta=meta)


# ---------------------------------------------------------------------------
# streaming fold (Phase B)
# ---------------------------------------------------------------------------


class _ShardFold:
    """Deterministic streaming fold over Phase B completions.

    ``on_result`` fires once per task in completion order — whatever
    order the pool's workers finish — with that task's shard results.
    Results queue on a pending-heap keyed by cluster index and fold
    strictly in cluster order, so the IPC list, cost accumulation, and
    telemetry absorption are bit-identical to a barrier fold while each
    cluster's records land as soon as every earlier cluster has.
    :meth:`finish` verifies that every cluster landed.
    """

    def __init__(self, shards, cost, telemetry):
        self._shards = shards
        self._cost = cost
        self._telemetry = telemetry
        self._pending: list = []
        self._queued: set[int] = set()
        self._next = 0
        self.cluster_ipcs: list[float] = []

    def on_result(self, index: int, results) -> None:
        del index  # each result carries its own cluster index
        for result in results:
            self._push(result)

    def _push(self, result) -> None:
        if result is None or result.index in self._queued:
            return
        self._queued.add(result.index)
        heapq.heappush(self._pending, (result.index, result))
        while self._pending and self._pending[0][0] == self._next:
            _, ready = heapq.heappop(self._pending)
            self._fold_one(self._shards[ready.index], ready)
            self._next += 1

    def _fold_one(self, shard: ClusterShard, result: ShardResult) -> None:
        if result.instructions != shard.cold_instructions:
            raise RuntimeError(
                f"cluster shard {shard.index} retired "
                f"{result.instructions} instructions but the cold scan "
                f"advanced {shard.cold_instructions}; the checkpoint "
                f"hand-off is corrupt"
            )
        self.cluster_ipcs.append(result.ipc)
        delta = result.cost_delta
        self._cost.hot_instructions += delta["hot_instructions"]
        self._cost.cache_updates += delta["cache_updates"]
        self._cost.predictor_updates += delta["predictor_updates"]
        if result.snapshot is not None:
            # The worker's session was live exactly when the run's is:
            # its records, spans and totals fold into the run's session
            # (a REPRO_TRACE file contains every cluster exactly once).
            self._telemetry.absorb(result.snapshot)

    def finish(self) -> None:
        """Verify every shard landed."""
        if self._next != len(self._shards):
            missing = [shard.index for shard in self._shards
                       if shard.index not in self._queued]
            raise RuntimeError(
                f"phase B returned no result for clusters {missing}; "
                f"the shard hand-off is corrupt"
            )
