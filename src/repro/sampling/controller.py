"""The sampled-simulation controller: hot, cold, and warm phases.

Execution follows the paper's Figure 1: for each cluster of the regimen,
the controller (1) hands the inter-cluster gap to the warm-up method —
which runs cold functional simulation plus whatever state repair it
implements — and (2) runs the detailed timing simulator over the cluster,
collecting its IPC as one sampling unit.  Cache and branch-predictor state
flow continuously through the whole run; the architectural state is always
exact because every skipped instruction is functionally executed.

This module owns the run-level data model (results, configurations) and
the shared simulator factory; the execution loops themselves live in
:mod:`repro.sampling.pipeline`, which offers two strategies behind
:meth:`SampledSimulator.run` — the classic continuous serial walk and
the two-phase cluster-sharded pipeline (``REPRO_CLUSTER_JOBS`` /
``cluster_jobs``).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field, fields

from ..branch import (
    BranchPredictor, PredictorConfig, PredictorStats, paper_predictor_config,
)
from ..cache import (
    CacheStats, HierarchyConfig, MemoryHierarchy, paper_hierarchy_config,
)
from ..functional.checkpoint import FunctionalCheckpoint
from ..telemetry import telemetry_from_env
from ..timing import CoreConfig, TimingSimulator, paper_core_config
from ..warmup.base import WarmupCost, WarmupMethod, warming_hooks
from ..workloads import Workload
from .regimen import SamplingRegimen
from .statistics import SampleEstimate, relative_error


@dataclass
class SampledRunResult:
    """Everything measured from one (workload, warm-up method) run."""

    workload_name: str
    method_name: str
    regimen: SamplingRegimen
    cluster_ipcs: list[float]
    estimate: SampleEstimate
    cost: WarmupCost
    wall_seconds: float
    extra: dict = field(default_factory=dict)

    def relative_error(self, true_ipc: float) -> float:
        return relative_error(true_ipc, self.estimate.mean)

    def passes_confidence_test(self, true_ipc: float) -> bool:
        return self.estimate.contains(true_ipc)

    def work_units(self) -> float:
        return self.cost.work_units()


@dataclass
class TrueRunResult:
    """Full-trace detailed simulation (the paper's "true IPC" baseline)."""

    workload_name: str
    instructions: int
    cycles: int
    wall_seconds: float

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


@dataclass(frozen=True)
class SimulatorConfigs:
    """The microarchitecture under simulation (shared by all methods).

    Frozen (hence hashable and safely picklable) so a configuration can
    key the harness's true-run and on-disk result caches and cross
    process boundaries in the parallel experiment engine unchanged.
    """

    hierarchy: HierarchyConfig = field(default_factory=paper_hierarchy_config)
    predictor: PredictorConfig = field(default_factory=paper_predictor_config)
    core: CoreConfig = field(default_factory=paper_core_config)


def steady_state_prefix(machine, hierarchy, predictor, count: int) -> None:
    """Run `count` instructions with full functional warming.

    Used to start measurement from steady state: the paper's 6-billion-
    instruction populations make the initial cold-start region negligible,
    but at laptop scale it would contaminate the true-IPC baseline.  Both
    the full-trace run and every sampled run execute the same warmed
    prefix before instruction 0 of the measured population, so all
    simulators start from identical state (see DESIGN.md §2);
    :meth:`SimulationStack.warm_prefix` runs it once per process and
    restores it afterwards.
    """
    if count <= 0:
        return
    machine.run(count, **warming_hooks(hierarchy, predictor))


#: Steady-state prefixes memoized per workload, one per hierarchy
#: config, predictor config and prefix length; the oldest goes first.
PREFIX_MEMO_LIMIT = 4

# Counters are snapshotted and restored field by field.  Reading a live
# stats object's ``__dict__`` (``vars``, ``copy``, pickle) makes CPython
# 3.11 drop its specialised attribute stores, which slows every later
# counter update on that object.
_CACHE_STATS = tuple(f.name for f in fields(CacheStats))
_PREDICTOR_STATS = tuple(f.name for f in fields(PredictorStats))
_PREDICTOR_COUNTERS = (("pht", "lookups"), ("pht", "updates"),
                       ("btb", "lookups"), ("btb", "updates"),
                       ("ras", "pushes"), ("ras", "pops"))


@dataclass(frozen=True)
class WarmState:
    """A stack's complete state at one point of a run.

    The one representation of "the state at a point": the steady-state
    prefix memo, the audit reference's cluster entries and the
    live-points library all hold it.  The architectural state is a
    :class:`FunctionalCheckpoint` delta against the workload's initial
    memory, plus the machine's ifetch-continuity marker.  Caches and
    predictor keep their contents and every counter, so a restored stack
    is indistinguishable from the one captured.
    """

    checkpoint: FunctionalCheckpoint
    last_fetch: tuple[int, int]
    caches: tuple[dict, ...]
    cache_stats: tuple[tuple[int, ...], ...]
    memory_accesses: int
    predictor: dict
    predictor_counters: tuple[int, ...]
    predictor_stats: tuple[int, ...]

    @classmethod
    def capture(cls, stack: "SimulationStack") -> "WarmState":
        machine, hierarchy, predictor = (stack.machine, stack.hierarchy,
                                         stack.predictor)
        caches = hierarchy.caches()
        return cls(
            checkpoint=FunctionalCheckpoint.capture(machine,
                                                    stack.workload.memory),
            last_fetch=machine._last_fetch,
            caches=tuple(cache.export_state() for cache in caches),
            cache_stats=tuple(
                tuple(getattr(cache.stats, name) for name in _CACHE_STATS)
                for cache in caches),
            memory_accesses=hierarchy.memory_accesses,
            predictor=predictor.export_state(),
            predictor_counters=tuple(
                getattr(getattr(predictor, part), name)
                for part, name in _PREDICTOR_COUNTERS),
            predictor_stats=tuple(getattr(predictor.stats, name)
                                  for name in _PREDICTOR_STATS),
        )

    def restore(self, stack: "SimulationStack") -> None:
        machine, hierarchy, predictor = (stack.machine, stack.hierarchy,
                                         stack.predictor)
        self.checkpoint.restore(machine, stack.workload.memory)
        # After restore(), which invalidates the marker.
        machine._last_fetch = self.last_fetch
        for cache, state, values in zip(hierarchy.caches(), self.caches,
                                        self.cache_stats):
            cache.load_state(state)
            for name, value in zip(_CACHE_STATS, values):
                setattr(cache.stats, name, value)
        hierarchy.memory_accesses = self.memory_accesses
        predictor.load_state(self.predictor)
        for (part, name), value in zip(_PREDICTOR_COUNTERS,
                                       self.predictor_counters):
            setattr(getattr(predictor, part), name, value)
        for name, value in zip(_PREDICTOR_STATS, self.predictor_stats):
            setattr(predictor.stats, name, value)


@dataclass
class SimulationStack:
    """The per-run simulator quartet over one workload.

    Built by :func:`build_simulation` — the single construction path
    shared by the serial controller loop, the true-IPC baseline, the
    audit reference trajectory, and the two-phase pipeline's shard
    workers, so every execution path simulates exactly the same
    microarchitecture wiring.
    """

    machine: object            # FunctionalMachine
    hierarchy: MemoryHierarchy
    predictor: BranchPredictor
    timing: TimingSimulator
    workload: Workload

    def warm_prefix(self, count: int) -> None:
        """Functionally warm `count` instructions (steady-state prefix).

        On a machine that has not run yet, the prefix is computed once
        per process for each workload, hierarchy config, predictor
        config and length, and memoized on the workload as a
        :class:`WarmState`; later stacks restore it.  The memo is
        bounded by :data:`PREFIX_MEMO_LIMIT` and is not pickled with the
        workload.
        """
        # Threads sharing a workload may race on the memo; a lost
        # update only means one more computed prefix.
        workload = self.workload
        if count <= 0 or self.machine.instructions_retired:
            steady_state_prefix(self.machine, self.hierarchy,
                                self.predictor, count)
            return
        memo = getattr(workload, "_prefix_memo", None)
        if memo is None:
            memo = workload._prefix_memo = {}
        key = (self.hierarchy.config, self.predictor.config, count)
        snapshot = memo.get(key)
        if snapshot is not None:
            snapshot.restore(self)
            return
        steady_state_prefix(self.machine, self.hierarchy, self.predictor,
                            count)
        if len(memo) >= PREFIX_MEMO_LIMIT:
            memo.pop(next(iter(memo)), None)
        memo[key] = WarmState.capture(self)


def build_simulation(
    workload: Workload,
    configs: SimulatorConfigs | None = None,
    warmup_prefix: int = 0,
    machine=None,
) -> SimulationStack:
    """Construct a fresh machine + hierarchy + predictor + timing stack.

    `warmup_prefix` > 0 additionally runs the steady-state prefix; paths
    that need the prefix under their own phase timer (or skip it, like
    shard workers restoring a checkpoint) pass 0 and call
    :meth:`SimulationStack.warm_prefix` themselves.  `machine` replaces
    the fresh one (a shard worker's, already restored from its
    checkpoint, so the image is copied once).  The stack keeps
    `workload`, on which :meth:`SimulationStack.warm_prefix` memoizes
    the prefix.
    """
    configs = configs if configs is not None else SimulatorConfigs()
    if machine is None:
        machine = workload.make_machine()
    hierarchy = MemoryHierarchy(configs.hierarchy)
    predictor = BranchPredictor(configs.predictor)
    timing = TimingSimulator(machine, hierarchy, predictor, configs.core)
    stack = SimulationStack(machine=machine, hierarchy=hierarchy,
                            predictor=predictor, timing=timing,
                            workload=workload)
    if warmup_prefix:
        stack.warm_prefix(warmup_prefix)
    return stack


class SampledSimulator:
    """Runs one workload under a sampling regimen with a warm-up method.

    The same regimen (hence the same uniformly random cluster starting
    positions) is used for every method, holding sampling bias constant —
    the comparison then isolates non-sampling bias, as in the paper.
    """

    def __init__(
        self,
        workload: Workload,
        regimen: SamplingRegimen,
        configs: SimulatorConfigs | None = None,
        warmup_prefix: int = 0,
        detail_ramp: int = 0,
        telemetry=None,
        cluster_jobs: int | None = None,
    ) -> None:
        self.workload = workload
        self.regimen = regimen
        self.configs = configs if configs is not None else SimulatorConfigs()
        self.warmup_prefix = warmup_prefix
        #: SMARTS-style detailed warming: each cluster simulates this many
        #: extra leading instructions in full detail but excludes them from
        #: the measured IPC, hiding the empty-pipeline restart transient.
        self.detail_ramp = detail_ramp
        #: Telemetry source: ``None`` resolves ``REPRO_TRACE`` per run;
        #: a zero-argument callable (e.g. the
        #: :class:`~repro.telemetry.Telemetry` class itself) yields a
        #: fresh session per run, so snapshots stay per-run even when the
        #: same simulator runs several methods; a session instance is
        #: shared across runs as-is (the caller owns its lifecycle).
        self.telemetry = telemetry
        #: Shard workers for the two-phase pipeline: ``None`` resolves
        #: ``REPRO_CLUSTER_JOBS`` per run (unset means 1 = serial), ``0``
        #: means one worker per CPU, ``1`` forces the serial loop.  Only
        #: :attr:`~repro.warmup.base.WarmupMethod.shardable` methods fan
        #: out; others fall back to serial with a notice.
        self.cluster_jobs = cluster_jobs

    def _telemetry_session(self):
        source = self.telemetry
        if source is None:
            return telemetry_from_env()
        if callable(source):
            return source()
        return source

    def run(self, method: WarmupMethod) -> SampledRunResult:
        """Execute the full sampled simulation with `method`.

        Dispatches between the two execution strategies in
        :mod:`repro.sampling.pipeline`: the continuous serial walk
        (reference semantics) and, for ``cluster_jobs > 1`` with a
        :attr:`~repro.warmup.base.WarmupMethod.shardable` method, the
        two-phase cold-scan + hot-shard pipeline.  A non-shardable
        method with parallelism requested falls back to serial with a
        notice on stderr rather than failing the run.
        """
        # Imported lazily: pipeline imports this module at top level
        # (results, factory), so the dependency must point one way only
        # at import time.
        from .pipeline import resolve_cluster_jobs, run_serial, run_sharded

        jobs = resolve_cluster_jobs(self.cluster_jobs)
        if jobs > 1:
            if method.shardable:
                return run_sharded(self, method, jobs)
            print(
                f"note: warm-up method {method.name!r} warms continuously "
                f"across cluster boundaries and cannot be sharded; "
                f"running serially (cluster-jobs={jobs} ignored)",
                file=sys.stderr,
            )
        return run_serial(self, method)


def measure_true_ipc(
    workload: Workload,
    total_instructions: int,
    configs: SimulatorConfigs | None = None,
    warmup_prefix: int = 0,
) -> TrueRunResult:
    """Detailed simulation of the full instruction stream (no sampling).

    `warmup_prefix` functionally warms that many instructions before
    measurement starts, so the baseline begins from the same steady state
    as sampled runs constructed with the same prefix.
    """
    stack = build_simulation(workload, configs, warmup_prefix=warmup_prefix)
    start_time = time.perf_counter()
    result = stack.timing.run(total_instructions)
    wall_seconds = time.perf_counter() - start_time
    return TrueRunResult(
        workload_name=workload.name,
        instructions=result.instructions,
        cycles=result.cycles,
        wall_seconds=wall_seconds,
    )
