"""Live-points: checkpoint-based sampled simulation.

Implements the technique of the paper's reference [18] (Wenisch et al.,
"Simulation Sampling with Live-Points", ISPASS 2006): instead of
fast-forwarding functionally to every cluster on every experiment, the
architectural state *and* the warmed microarchitectural state at each
cluster boundary are captured once into a reusable library.  Subsequent
experiments — typically sweeps over *core* parameters, which do not
invalidate cache or predictor contents — replay only the detailed
clusters, turning an O(population) simulation into an
O(sampled instructions) one.

Two caveats carried over from the original technique:

- a live-point library is tied to the cache/predictor geometry it was
  generated with (changing those invalidates the warmed state);
- the state stored is whatever the generating warm-up method produced
  (SMARTS warming by default, so replays inherit its accuracy).

Generation is the serial walk itself
(:func:`~repro.sampling.pipeline.record_cluster_entries`) with a
capturing observer, and a replay runs each cluster's detailed ramp
before the measured cluster, as the walk did, so it reproduces the
generating method's own sampled run exactly.  A library persists as the
checkpoint store's ``livepoints`` kind
(:meth:`LivePointLibrary.store_in`), which gives it atomic writes and
digest checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from ..sampling.controller import SimulatorConfigs, build_simulation
from ..sampling.pipeline import ClusterEntry, record_cluster_entries
from ..sampling.regimen import SamplingRegimen
from ..sampling.statistics import (
    SampleEstimate, cluster_estimate, relative_error,
)
from ..timing import CoreConfig
from ..warmup.base import WarmupMethod
from ..warmup.fixed_period import SmartsWarmup
from ..workloads import Workload


@dataclass
class LivePointReplayResult:
    """Outcome of replaying a library under one core configuration."""

    workload_name: str
    cluster_ipcs: list[float]
    estimate: SampleEstimate
    wall_seconds: float
    extra: dict = field(default_factory=dict)

    def relative_error(self, true_ipc: float) -> float:
        return relative_error(true_ipc, self.estimate.mean)

    def passes_confidence_test(self, true_ipc: float) -> bool:
        return self.estimate.contains(true_ipc)


class LivePointLibrary:
    """A reusable collection of warmed cluster entry points."""

    def __init__(
        self,
        workload: Workload,
        regimen: SamplingRegimen,
        configs: SimulatorConfigs,
        points: tuple[ClusterEntry, ...],
        generation_seconds: float = 0.0,
        detail_ramp: int = 0,
    ) -> None:
        self.workload = workload
        self.regimen = regimen
        self.configs = configs
        self.points = points
        self.generation_seconds = generation_seconds
        #: The generating walk's ramp limit (part of the store key).
        self.detail_ramp = detail_ramp

    # -- generation ----------------------------------------------------------

    @classmethod
    def generate(
        cls,
        workload: Workload,
        regimen: SamplingRegimen,
        configs: SimulatorConfigs | None = None,
        warmup: WarmupMethod | None = None,
        warmup_prefix: int = 0,
        detail_ramp: int = 0,
    ) -> "LivePointLibrary":
        """Build a library by one serial walk of `warmup`.

        `warmup` controls how microarchitectural state is maintained
        between capture points (SMARTS full functional warming by
        default, matching the original live-points recipe).  Each point
        is the walk's :class:`~repro.sampling.controller.WarmState` at a
        cluster entry, before the cluster's detailed ramp (at most
        `detail_ramp` instructions, as in
        :class:`~repro.sampling.SampledSimulator`).
        """
        configs = configs if configs is not None else SimulatorConfigs()
        method = warmup if warmup is not None else SmartsWarmup()
        start_time = time.perf_counter()
        points = record_cluster_entries(workload, regimen, configs, method,
                                        warmup_prefix=warmup_prefix,
                                        detail_ramp=detail_ramp)
        generation_seconds = time.perf_counter() - start_time
        return cls(workload, regimen, configs, points, generation_seconds,
                   detail_ramp=detail_ramp)

    # -- replay ---------------------------------------------------------------

    def replay(self, core_config: CoreConfig | None = None
               ) -> LivePointReplayResult:
        """Detail-simulate every stored cluster under `core_config`.

        Only the clusters and their detailed ramps run — no functional
        fast-forwarding — so a replay costs a small fraction of a full
        sampled simulation and can be repeated for many core
        configurations.
        """
        core = core_config if core_config is not None else self.configs.core
        configs = replace(self.configs, core=core)
        cluster_ipcs: list[float] = []
        start_time = time.perf_counter()
        for point in self.points:
            stack = build_simulation(self.workload, configs)
            point.state.restore(stack)
            result = stack.timing.run(
                point.ramp + self.regimen.cluster_size,
                measure_after=point.ramp,
            )
            cluster_ipcs.append(result.ipc)
        wall_seconds = time.perf_counter() - start_time
        return LivePointReplayResult(
            workload_name=self.workload.name,
            cluster_ipcs=cluster_ipcs,
            estimate=cluster_estimate(cluster_ipcs),
            wall_seconds=wall_seconds,
            extra={"core_config": core},
        )

    # -- checkpoint-store integration ------------------------------------------

    def store_key(self, *, warmup_prefix: int = 0,
                  method_identity: "dict | None" = None) -> str:
        """The content-addressed store key for this library.

        `method_identity` is the generating warm-up method's
        :meth:`~repro.warmup.base.WarmupMethod.store_identity` (the
        default SMARTS recipe when None) — libraries warmed by
        different methods hold different microarchitectural state and
        must never share a key.
        """
        from ..store import livepoint_store_key

        return livepoint_store_key(
            self.workload, self.regimen, self.configs,
            warmup_prefix=warmup_prefix, detail_ramp=self.detail_ramp,
            method_identity=(method_identity
                             or {"method": "SmartsWarmup"}),
        )

    def store_in(self, store, *, warmup_prefix: int = 0,
                 method_identity: "dict | None" = None) -> str:
        """Persist this library under its content key; returns the key."""
        key = self.store_key(warmup_prefix=warmup_prefix,
                             method_identity=method_identity)
        store.put(key, self, kind="livepoints", meta={
            "workload": self.workload.name,
            "points": len(self.points),
            "cluster_size": int(self.regimen.cluster_size),
        })
        return key

    @staticmethod
    def from_store(store, key: str) -> "LivePointLibrary | None":
        """The stored library for `key`, or None on a (possibly
        corrupt-degraded) miss."""
        from ..store import expect_instance

        return store.get(key, "livepoints",
                         validate=expect_instance(LivePointLibrary))

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return (
            f"LivePointLibrary({self.workload.name!r}, "
            f"{len(self.points)} points, "
            f"cluster_size={self.regimen.cluster_size})"
        )
