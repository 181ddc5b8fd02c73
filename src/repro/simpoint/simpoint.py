"""SimPoint: representative-interval selection and simulation.

Implements the SimPoint methodology the paper compares against (§2, §5
and Figure 9): profile basic-block vectors per fixed-size interval,
cluster them with k-means, pick the interval closest to each centroid as
a *simulation point*, and estimate whole-program IPC as the cluster-size-
weighted mean of the points' detailed IPCs.

Because points are chosen systematically (not randomly), "statistical
tests such as the confidence interval cannot be used" — the result
carries no confidence interval, unlike cluster sampling.

The paper also evaluates SimPoint with and without SMARTS warm-up while
skipping to each point; `warmup` selects that behaviour here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..branch import BranchPredictor
from ..cache import MemoryHierarchy
from ..sampling.controller import SimulatorConfigs
from ..timing import TimingSimulator
from ..warmup.base import SimulationContext, WarmupCost, WarmupMethod
from ..warmup.none import NoWarmup
from ..workloads import Workload
from .bbv import BBVProfile, profile_bbv
from .kmeans import KMeansResult, kmeans, random_projection


@dataclass
class SimPoint:
    """One chosen simulation point."""

    interval_index: int
    weight: float
    cluster: int

    @property
    def start_instruction(self) -> int:
        raise AttributeError(
            "start depends on the interval size; use SimPointSelection"
        )


@dataclass
class SimPointSelection:
    """The outcome of SimPoint analysis for one workload."""

    workload_name: str
    interval_size: int
    points: list[SimPoint]
    clustering: KMeansResult
    profile: BBVProfile

    def starts(self) -> list[tuple[int, float]]:
        """(start instruction, weight) pairs sorted by position."""
        pairs = [
            (point.interval_index * self.interval_size, point.weight)
            for point in self.points
        ]
        return sorted(pairs)


def select_simpoints(
    workload: Workload,
    total_instructions: int,
    interval_size: int,
    max_points: int = 30,
    seed: int = 0,
) -> SimPointSelection:
    """Run the full SimPoint analysis pipeline.

    The paper's experiments use 30 simulation points at varying interval
    sizes; `max_points` is capped by the number of intervals available.
    """
    profile = profile_bbv(workload, total_instructions, interval_size)
    vectors = profile.normalized()
    projected = random_projection(vectors, seed=seed)
    clustering = kmeans(projected, k=min(max_points, len(vectors)), seed=seed)

    points: list[SimPoint] = []
    total = len(vectors)
    for cluster in range(clustering.k):
        members = np.flatnonzero(clustering.assignments == cluster)
        if len(members) == 0:
            continue
        centroid = clustering.centroids[cluster]
        distances = np.sum(
            (projected[members] - centroid) ** 2, axis=1
        )
        representative = int(members[int(np.argmin(distances))])
        points.append(
            SimPoint(
                interval_index=representative,
                weight=len(members) / total,
                cluster=cluster,
            )
        )
    return SimPointSelection(
        workload_name=workload.name,
        interval_size=interval_size,
        points=points,
        clustering=clustering,
        profile=profile,
    )


@dataclass
class SimPointRunResult:
    """IPC estimate produced by simulating the chosen points."""

    workload_name: str
    method_name: str
    interval_size: int
    point_ipcs: list[float]
    weights: list[float]
    cost: WarmupCost
    wall_seconds: float
    extra: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Cluster-weighted IPC estimate."""
        total_weight = sum(self.weights)
        if total_weight == 0:
            return 0.0
        return (
            sum(w * ipc for w, ipc in zip(self.weights, self.point_ipcs))
            / total_weight
        )

    def relative_error(self, true_ipc: float) -> float:
        return abs(true_ipc - self.ipc) / abs(true_ipc)


def run_simpoints(
    workload: Workload,
    selection: SimPointSelection,
    warmup: WarmupMethod | None = None,
    configs: SimulatorConfigs | None = None,
) -> SimPointRunResult:
    """Simulate each chosen point in detail and combine the IPCs.

    `warmup` controls what happens while skipping to each point: None
    reproduces plain SimPoint (state left stale — the paper's "50K"/"10M"
    rows); a :class:`SmartsWarmup` instance reproduces the
    "50K-SMARTS"/"10M-SMARTS" rows.
    """
    configs = configs if configs is not None else SimulatorConfigs()
    method = warmup if warmup is not None else NoWarmup()
    machine = workload.make_machine()
    hierarchy = MemoryHierarchy(configs.hierarchy)
    predictor = BranchPredictor(configs.predictor)
    timing = TimingSimulator(machine, hierarchy, predictor, configs.core)
    method.bind(SimulationContext(
        machine=machine, hierarchy=hierarchy, predictor=predictor,
    ))

    point_ipcs: list[float] = []
    weights: list[float] = []
    position = 0
    start_time = time.perf_counter()
    for start, weight in selection.starts():
        gap = start - position
        if gap > 0:
            method.skip(gap)
        position = start
        method.pre_cluster()
        result = timing.run(selection.interval_size)
        method.post_cluster()
        position += result.instructions
        method.cost.hot_instructions += result.instructions
        point_ipcs.append(result.ipc)
        weights.append(weight)
    wall_seconds = time.perf_counter() - start_time

    return SimPointRunResult(
        workload_name=workload.name,
        method_name=f"SimPoint+{method.name}",
        interval_size=selection.interval_size,
        point_ipcs=point_ipcs,
        weights=weights,
        cost=method.cost,
        wall_seconds=wall_seconds,
    )
