"""Two-phase execution pipeline: cold scan + cluster-sharded hot simulation.

The classic controller loop (:func:`run_serial`) interleaves three kinds
of work per cluster — cold functional skip, reconstruction, detailed
timing — on one continuously evolving simulator.  Only the detailed
timing is expensive, and for Reverse State Reconstruction it depends on
nothing but (a) the architectural state at cluster entry and (b) the
just-logged gap: exactly the locality the paper's §3 design buys.  The
two-phase pipeline (:func:`run_sharded`) exploits it:

- **Phase A — cold scan** (serial, fast): walk the regimen once doing
  cold functional simulation only.  For every cluster, skip the gap with
  the method's logging hooks, capture a picklable
  :class:`~repro.functional.FunctionalCheckpoint`, detach the gap's
  filled :class:`~repro.core.source.ReconstructionSource`, and advance
  the machine cold across the cluster region.  Each cluster becomes one
  :class:`ClusterShard`.
- **Phase B — hot shards** (parallel): each shard independently restores
  its checkpoint onto a fresh simulator stack, adopts the gap source,
  runs the method's reconstruction plus the detailed ramp + cluster, and
  returns its IPC, cost deltas, and telemetry snapshot.  The shards are
  dealt round-robin into one :class:`ShardTask` per worker
  (``REPRO_CLUSTER_JOBS`` / ``--cluster-jobs``), so the workload, configs
  and method travel once per worker rather than once per cluster, and
  each checkpoint carries only the memory words that differ from the
  workload's initial image.  Tasks fan out over
  :func:`repro.harness.parallel.map_tasks` and fold back through a
  **streaming fold**: each finished task's results are consumed via the
  executor's ``on_result`` callback in completion order and folded
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

from ..functional import FunctionalCheckpoint
from ..store.checkpoint import resolve_store, shard_store_key
from ..store.serialization import warn_once
from ..telemetry import (
    EVENT_RUN_END,
    EVENT_RUN_START,
    PHASE_COLD_SKIP,
    PHASE_HOT_SIM,
    PHASE_RECONSTRUCT,
    TelemetrySnapshot,
    audit_enabled,
    emit_event,
    merge_snapshots,
    telemetry_from_env,
)
from ..warmup.base import SimulationContext
from .controller import SampledRunResult, build_simulation
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
        jobs = os.cpu_count() or 1
    return jobs


def cluster_geometry(position: int, cluster_start: int,
                     detail_ramp: int) -> tuple[int, int]:
    """The controller's ramp-borrowing arithmetic for one cluster.

    The detailed ramp borrows its instructions from the end of the gap
    so cluster positions stay comparable across methods; returns
    ``(ramp, gap)``.  Single-sourced here so the serial walk, the cold
    scan, and the audit reference trajectory can never drift apart.
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
# serial strategy (reference semantics)
# ---------------------------------------------------------------------------


def run_serial(simulator, method) -> SampledRunResult:
    """The continuous serial walk (the paper's Figure 1 loop).

    Cache and branch-predictor state flow continuously through the whole
    run; this is the reference semantics every other strategy is
    measured against.
    """
    configs = simulator.configs
    telemetry = simulator._telemetry_session()
    traced = telemetry.enabled
    stack = build_simulation(simulator.workload, configs)
    machine = stack.machine
    timing = stack.timing
    emit_event(telemetry.events_path, EVENT_RUN_START,
               workload=simulator.workload.name, method=method.name,
               strategy="serial")
    run_span = telemetry.span(
        "run", workload=simulator.workload.name, method=method.name,
        strategy="serial",
    )
    run_span.__enter__()
    with telemetry.span("prefix", cat="phase"), telemetry.phase("prefix"):
        stack.warm_prefix(simulator.warmup_prefix)
    context = SimulationContext(
        machine=machine,
        hierarchy=stack.hierarchy,
        predictor=stack.predictor,
        regimen=simulator.regimen,
        telemetry=telemetry,
    )
    method.bind(context)

    # REPRO_AUDIT: per-cluster divergence probes against a cached
    # perfectly-warmed reference trajectory.  Imported lazily — the
    # analysis package depends on the controller — and resolved per
    # run, so the audit-off hot path pays one env check and a None
    # test per cluster.  Audit data rides the telemetry session; with
    # an explicit null session there is nowhere to put it, so the
    # probe is skipped.
    audit = None
    if audit_enabled() and traced:
        from ..analysis.audit import AuditProbe

        audit = AuditProbe.for_run(simulator, stack.hierarchy,
                                   stack.predictor, telemetry)

    cluster_size = simulator.regimen.cluster_size
    detail_ramp = simulator.detail_ramp
    cluster_ipcs: list[float] = []
    position = 0
    cost = method.cost
    start_time = time.perf_counter()

    for index, cluster_start in enumerate(simulator.regimen.cluster_starts()):
        ramp, gap = cluster_geometry(position, cluster_start, detail_ramp)
        if traced:
            telemetry.begin_cluster()
            cost_before = cost.as_dict()
        cluster_span = telemetry.span(f"cluster {index}", cluster=index)
        cluster_span.__enter__()
        with telemetry.span(PHASE_COLD_SKIP, cat="phase"), \
                telemetry.phase(PHASE_COLD_SKIP):
            if gap > 0:
                method.skip(gap)
        position = cluster_start - ramp
        with telemetry.span(PHASE_RECONSTRUCT, cat="phase"), \
                telemetry.phase(PHASE_RECONSTRUCT):
            hook = method.pre_cluster()
        if audit is not None:
            with telemetry.span("audit", cat="phase"):
                audit.before_cluster(index, method)
        with telemetry.span(PHASE_HOT_SIM, cat="phase"), \
                telemetry.phase(PHASE_HOT_SIM):
            result = timing.run(
                cluster_size + ramp, pre_branch_hook=hook,
                measure_after=ramp,
            )
        with telemetry.span(PHASE_RECONSTRUCT, cat="phase"), \
                telemetry.phase(PHASE_RECONSTRUCT):
            method.post_cluster()
        # The hot cluster fetched instruction blocks outside machine.run,
        # so the ifetch-continuity marker no longer names the last block
        # the caches saw; drop it so the next skip re-reports its first
        # block (and logs stay identical to the sharded cold scan).
        machine.invalidate_fetch_block()
        position += result.instructions
        cost.hot_instructions += result.instructions
        cluster_ipcs.append(result.ipc)
        if audit is not None:
            # Emitted before end_cluster so the audit record sorts
            # (stably) ahead of its cluster record after any merge.
            with telemetry.span("audit", cat="phase"):
                audit.after_cluster(index, method, result.ipc)
        if traced:
            cost_now = cost.as_dict()
            deltas = {
                name: cost_now[name] - cost_before[name]
                for name in cost_now
            }
            telemetry.observe("cluster.ipc", result.ipc)
            telemetry.observe("cluster.gap", gap)
            telemetry.end_cluster({
                "workload": simulator.workload.name,
                "method": method.name,
                "cluster": index,
                "start": cluster_start,
                "gap": gap,
                "ramp": ramp,
                "instructions": result.instructions,
                "ipc": result.ipc,
                "warm_updates": (deltas["cache_updates"]
                                 + deltas["predictor_updates"]),
                **deltas,
            })
        cluster_span.__exit__(None, None, None)

    run_span.__exit__(None, None, None)
    wall_seconds = time.perf_counter() - start_time
    extra = {"harmonic_mean_ipc": _harmonic_mean(cluster_ipcs),
             "warmup_prefix": simulator.warmup_prefix}
    if traced:
        telemetry.set_gauge("run.wall_seconds", wall_seconds)
        telemetry.set_gauge("run.clusters", len(cluster_ipcs))
        extra["telemetry"] = telemetry.snapshot()
        telemetry.flush_trace()
        telemetry.flush_spans()
    emit_event(telemetry.events_path, EVENT_RUN_END,
               workload=simulator.workload.name, method=method.name,
               strategy="serial", clusters=len(cluster_ipcs),
               wall_seconds=wall_seconds)
    return SampledRunResult(
        workload_name=simulator.workload.name,
        method_name=method.name,
        regimen=simulator.regimen,
        cluster_ipcs=cluster_ipcs,
        estimate=cluster_estimate(cluster_ipcs),
        cost=cost,
        wall_seconds=wall_seconds,
        extra=extra,
    )


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
    telemetry = simulator._telemetry_session()
    traced = telemetry.enabled
    store, store_key = _shard_store_for(simulator, method)
    emit_event(telemetry.events_path, EVENT_RUN_START,
               workload=simulator.workload.name, method=method.name,
               strategy="sharded", cluster_jobs=jobs)
    run_span = telemetry.span(
        "run", workload=simulator.workload.name, method=method.name,
        strategy="sharded", cluster_jobs=jobs,
    )
    run_span.__enter__()

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
        with telemetry.span("prefix", cat="phase"), \
                telemetry.phase("prefix"):
            stack.warm_prefix(simulator.warmup_prefix)
    # The clone template is pickled before bind, while the method holds
    # configuration only; every shard worker unpickles a private copy
    # and binds it to its own context.
    method_blob = pickle.dumps(method.clone_unbound())
    context = SimulationContext(
        machine=machine,
        hierarchy=stack.hierarchy,
        predictor=stack.predictor,
        regimen=simulator.regimen,
        telemetry=telemetry,
    )
    method.bind(context)

    audit_slices = None
    if audit_enabled() and traced:
        from ..analysis.audit import (
            ReferenceTrajectory,
            reference_trajectory_for,
        )

        trajectory = reference_trajectory_for(
            simulator.workload, simulator.regimen, configs,
            warmup_prefix=simulator.warmup_prefix,
            detail_ramp=simulator.detail_ramp,
        )
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
    start_time = time.perf_counter()

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
                    telemetry.span(PHASE_COLD_SKIP, cat="phase"), \
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
    # One task per worker, shards dealt round-robin: the run-wide inputs
    # are pickled once per worker instead of once per cluster.
    workers = min(jobs, len(shards))
    tasks = [
        ShardTask(
            workload=simulator.workload,
            configs=configs,
            regimen=simulator.regimen,
            method_blob=method_blob,
            shards=tuple(shards[offset::workers]),
        )
        for offset in range(workers)
    ]
    # Lazy: harness.parallel imports the sampling package at top level.
    from ..harness.parallel import map_tasks

    # Workers re-parent their cluster spans under phase_b: the context
    # (parent id + run clock origin) travels via the environment and is
    # captured while the phase_b span is open.  The fold is streaming:
    # each finished task lands through `on_result` and folds
    # (deterministic cluster order, pending-heap) while other tasks
    # still execute.
    fold = _ShardFold(shards, cost, telemetry, traced)
    with telemetry.span("phase_b", cat="phase"):
        results = map_tasks(run_shards, tasks, jobs,
                            span_context=telemetry.spans.context(),
                            on_result=fold.on_result)
    fold.finish(results)
    cluster_ipcs = fold.cluster_ipcs
    worker_snapshots = fold.snapshots

    run_span.__exit__(None, None, None)
    wall_seconds = time.perf_counter() - start_time
    extra = {
        "harmonic_mean_ipc": _harmonic_mean(cluster_ipcs),
        "warmup_prefix": simulator.warmup_prefix,
        "sharded": True,
        "cluster_jobs": jobs,
    }
    if store is not None:
        extra["checkpoint_store"] = ("hit" if stored_shards is not None
                                     else "miss")
    if traced:
        telemetry.set_gauge("run.wall_seconds", wall_seconds)
        telemetry.set_gauge("run.clusters", len(cluster_ipcs))
        telemetry.set_gauge("run.cluster_jobs", jobs)
        # ... while their counters/histograms/phase timers merge into
        # the run snapshot, records-stripped (trace *and* spans, both
        # re-emitted above) to avoid double counting.
        merged = merge_snapshots(
            [telemetry.snapshot()]
            + [_without_records(s) for s in worker_snapshots]
        )
        extra["telemetry"] = merged
        telemetry.flush_trace()
        telemetry.flush_spans()
    emit_event(telemetry.events_path, EVENT_RUN_END,
               workload=simulator.workload.name, method=method.name,
               strategy="sharded", clusters=len(cluster_ipcs),
               wall_seconds=wall_seconds)
    return SampledRunResult(
        workload_name=simulator.workload.name,
        method_name=method.name,
        regimen=simulator.regimen,
        cluster_ipcs=cluster_ipcs,
        estimate=cluster_estimate(cluster_ipcs),
        cost=cost,
        wall_seconds=wall_seconds,
        extra=extra,
    )


def run_shards(task: ShardTask) -> list[ShardResult]:
    """Phase B worker: every shard of one task, in task order.

    Module-level and driven purely by the picklable `task`, so it runs
    identically in a pool worker or in-process (the fallback when no
    pool is available — e.g. sharding inside a matrix worker).
    """
    return [run_shard(task, shard) for shard in task.shards]


def run_shard(task: ShardTask, shard: ClusterShard) -> ShardResult:
    """One cluster, restored from its shard onto a fresh stack."""
    telemetry = telemetry_from_env()
    traced = telemetry.enabled
    stack = build_simulation(task.workload, task.configs)
    shard.checkpoint.restore(stack.machine, task.workload.memory)
    context = SimulationContext(
        machine=stack.machine,
        hierarchy=stack.hierarchy,
        predictor=stack.predictor,
        regimen=task.regimen,
        telemetry=telemetry,
    )
    method = pickle.loads(task.method_blob)
    method.bind(context)
    method.adopt_source(shard.source)

    audit = None
    if shard.audit_slice is not None and traced:
        from ..analysis.audit import AuditProbe

        audit = AuditProbe(shard.audit_slice, stack.hierarchy,
                           stack.predictor, telemetry)

    cost = method.cost
    if traced:
        telemetry.begin_cluster()
    # The worker's root span: its parent (the run's phase_b span) and
    # the run clock origin arrive via the propagated span context, so
    # this subtree lands directly inside the run's trace at fold time.
    cluster_span = telemetry.span(f"cluster {shard.index}",
                                  cluster=shard.index)
    cluster_span.__enter__()
    with telemetry.span(PHASE_RECONSTRUCT, cat="phase"), \
            telemetry.phase(PHASE_RECONSTRUCT):
        hook = method.pre_cluster()
    if audit is not None:
        with telemetry.span("audit", cat="phase"):
            audit.before_cluster(shard.index, method)
    with telemetry.span(PHASE_HOT_SIM, cat="phase"), \
            telemetry.phase(PHASE_HOT_SIM):
        result = stack.timing.run(
            task.regimen.cluster_size + shard.ramp,
            pre_branch_hook=hook,
            measure_after=shard.ramp,
        )
    with telemetry.span(PHASE_RECONSTRUCT, cat="phase"), \
            telemetry.phase(PHASE_RECONSTRUCT):
        method.post_cluster()
    cost.hot_instructions += result.instructions
    if audit is not None:
        with telemetry.span("audit", cat="phase"):
            audit.after_cluster(shard.index, method, result.ipc)
    if traced:
        # The record shows the cluster's full per-phase cost: the
        # worker's own (reconstruction, hot) plus the gap's cold-scan
        # share handed over by Phase A.
        deltas = cost.as_dict()
        for name, value in shard.skip_cost.items():
            deltas[name] += value
        telemetry.observe("cluster.ipc", result.ipc)
        telemetry.observe("cluster.gap", shard.gap)
        telemetry.end_cluster({
            "workload": task.workload.name,
            "method": method.name,
            "cluster": shard.index,
            "start": shard.cluster_start,
            "gap": shard.gap,
            "ramp": shard.ramp,
            "instructions": result.instructions,
            "ipc": result.ipc,
            "warm_updates": (deltas["cache_updates"]
                             + deltas["predictor_updates"]),
            **deltas,
        })
    cluster_span.__exit__(None, None, None)
    return ShardResult(
        index=shard.index,
        ipc=result.ipc,
        instructions=result.instructions,
        cost_delta=cost.as_dict(),
        snapshot=telemetry.snapshot() if traced else None,
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


def _without_records(snapshot: TelemetrySnapshot) -> TelemetrySnapshot:
    """A copy of `snapshot` minus trace/span records (already re-emitted
    through the parent session and its span recorder)."""
    return TelemetrySnapshot(
        counters=snapshot.counters,
        gauges=snapshot.gauges,
        histograms=snapshot.histograms,
        phase_seconds=snapshot.phase_seconds,
        trace_records=[],
        spans=[],
    )


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

    A store must never fail a run: any write error degrades to a
    warn-once stderr note and the run proceeds with its in-memory
    shards.
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
    try:
        with telemetry.span("store_capture", cat="cache", kind="shards"):
            store.put(key, stored, kind="shards", meta=meta)
    except Exception as exc:  # pragma: no cover - defensive
        warn_once("checkpoint-store capture", str(store.root),
                  f"warning: failed to persist Phase A shards to "
                  f"{store.root} ({exc}); continuing without the store")


# ---------------------------------------------------------------------------
# streaming fold (Phase B)
# ---------------------------------------------------------------------------


class _ShardFold:
    """Deterministic streaming fold over Phase B completions.

    ``on_result`` fires in completion order — whatever order the
    executor's workers finish — with one task's list of shard results.
    Results queue on a pending-heap keyed by cluster index and fold
    strictly in cluster order, so the IPC list, cost accumulation, and
    trace/span re-emission are bit-identical to a barrier fold while each
    cluster's records land as soon as every earlier cluster has.
    :meth:`finish` folds anything the executor returned without
    signalling (the ordered-list fallback for backends that skip
    ``on_result``) and verifies completeness.
    """

    def __init__(self, shards, cost, telemetry, traced):
        self._shards = shards
        self._cost = cost
        self._telemetry = telemetry
        self._traced = traced
        self._pending: list = []
        self._queued: set[int] = set()
        self._next = 0
        self.cluster_ipcs: list[float] = []
        self.snapshots: list[TelemetrySnapshot] = []

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
            self.snapshots.append(result.snapshot)
            if self._traced:
                # Worker trace records flow through the parent session
                # (a REPRO_TRACE file contains every cluster exactly
                # once), and worker spans are adopted into the parent
                # recorder — already parented under phase_b and stamped
                # on the run timeline by the propagated context.
                for record in result.snapshot.trace_records:
                    self._telemetry.emit(record)
                self._telemetry.spans.adopt(result.snapshot.spans)

    def finish(self, task_results) -> None:
        """Fold any undelivered results and verify every shard landed."""
        for results in task_results:
            for result in results or ():
                self._push(result)
        if self._next != len(self._shards):
            missing = [shard.index for shard in self._shards
                       if shard.index not in self._queued]
            raise RuntimeError(
                f"phase B returned no result for clusters {missing}; "
                f"the shard hand-off is corrupt"
            )
