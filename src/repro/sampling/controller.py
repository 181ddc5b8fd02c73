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
from dataclasses import dataclass, field

from ..branch import BranchPredictor, PredictorConfig, paper_predictor_config
from ..cache import HierarchyConfig, MemoryHierarchy, paper_hierarchy_config
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
    simulators start from identical state (see DESIGN.md §2).
    """
    if count <= 0:
        return
    machine.run(count, **warming_hooks(hierarchy, predictor))


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

    def warm_prefix(self, count: int) -> None:
        """Functionally warm `count` instructions (steady-state prefix)."""
        steady_state_prefix(self.machine, self.hierarchy, self.predictor,
                            count)


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
    checkpoint, so the image is copied once).
    """
    configs = configs if configs is not None else SimulatorConfigs()
    if machine is None:
        machine = workload.make_machine()
    hierarchy = MemoryHierarchy(configs.hierarchy)
    predictor = BranchPredictor(configs.predictor)
    timing = TimingSimulator(machine, hierarchy, predictor, configs.core)
    stack = SimulationStack(machine=machine, hierarchy=hierarchy,
                            predictor=predictor, timing=timing)
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
        #: Telemetry source: ``None`` resolves ``REPRO_TRACE`` /
        #: ``REPRO_TELEMETRY`` per run; a zero-argument callable (e.g. the
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
