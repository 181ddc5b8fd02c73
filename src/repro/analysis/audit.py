"""Accuracy audit: per-cluster bias attribution against a warmed reference.

The paper's argument decomposes a sampled estimate's error into two
independent components (§2): *sampling* bias — the clusters chosen do
not perfectly represent the population, shared by every warm-up method —
and *non-sampling (cold-start)* bias — the reconstructed
microarchitectural state at each cluster entry differs from the state a
perfectly warmed run would carry.  PR 2's telemetry observes only cost;
this module makes the accuracy side continuously observable:

- :func:`reference_trajectory_for` runs the workload once under the
  SMARTS reference (full functional warming, the paper's "perfect
  warm-up" proxy) through a loop that mirrors
  :meth:`~repro.sampling.controller.SampledSimulator.run` exactly, and
  captures the complete microarchitectural state at every cluster entry
  plus each cluster's reference IPC and the population's true IPC.  The
  trajectory is deterministic, picklable, and cached — in-process and,
  via :mod:`repro.harness.cache`, on disk — so auditing a whole method
  matrix pays for the reference once.
- :class:`AuditProbe` hangs off the controller loop behind
  ``REPRO_AUDIT``: at each cluster boundary it diffs the live
  reconstructed state against the reference state (cache tag and
  LRU-rank agreement per level, PHT counter/prediction agreement and
  the §3.2 inference-table ambiguity census, BTB and RAS agreement) and
  attributes the cluster's IPC error into
  ``cold_start_error = ipc - ref_ipc`` (what reconstruction cost us) and
  ``sampling_error = ref_ipc - true_ipc`` (what cluster placement cost
  us); the two telescope to the cluster's total error against truth.
  Records ride the normal telemetry session (``"type": "audit"``), so
  they merge deterministically across the parallel engine and contain
  no timing or source-representation fields — the audit JSON is
  bit-for-bit identical between the compacted log and the raw test
  oracle and between serial and parallel runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..branch import BranchPredictor
from ..cache import MemoryHierarchy
from ..harness.cache import cache_key, resolve_cache
from ..sampling.controller import (
    SimulatorConfigs,
    build_simulation,
    measure_true_ipc,
)
from ..sampling.pipeline import cluster_geometry
from ..sampling.regimen import SamplingRegimen
from ..telemetry import PHASE_AUDIT, RECORD_AUDIT
from ..warmup.base import SimulationContext
from ..warmup.fixed_period import SmartsWarmup
from ..workloads import Workload
from .fidelity import _jaccard, _ratio

#: Cache levels audited, in report order.
CACHE_LEVELS = ("l1i", "l1d", "l2")

#: Census keys produced by ``ReverseBranchReconstructor.inference_census``;
#: audited methods without an on-demand PHT engine report them as None.
CENSUS_KEYS = (
    "pht_entries_mentioned",
    "pht_exact",
    "pht_ambiguous_two",
    "pht_ambiguous_three",
    "pht_stale",
    "pht_ambiguity_mass",
)


@dataclass(frozen=True)
class ReferenceState:
    """Perfectly warmed microarchitectural state at one cluster entry.

    Captured after the reference has skipped the gap (with full warming)
    but before the detailed ramp + cluster execute — the same boundary
    at which the controller's probe diffs the audited method.  All
    fields are plain tuples/ints so the trajectory pickles unchanged
    through the result cache and across worker processes.
    """

    cluster_index: int
    start: int
    #: level name -> Cache.state_fingerprint() (per-set MRU->LRU tags).
    cache_fingerprints: dict[str, tuple]
    pht_counters: tuple[int, ...]
    ghr: int
    btb_tags: tuple
    btb_targets: tuple
    ras_from_top: tuple[int, ...]
    #: The reference's measured IPC for this cluster (same ramp/measure
    #: window as the audited run).
    ipc: float


@dataclass(frozen=True)
class ReferenceTrajectory:
    """One workload's reference states, reference IPCs, and true IPC."""

    workload_name: str
    true_ipc: float
    states: tuple[ReferenceState, ...]


def compute_reference_trajectory(
    workload: Workload,
    regimen: SamplingRegimen,
    configs: SimulatorConfigs | None = None,
    warmup_prefix: int = 0,
    detail_ramp: int = 0,
) -> ReferenceTrajectory:
    """Run the SMARTS reference and capture state at every cluster entry.

    The loop replicates the controller's ramp-borrowing arithmetic
    exactly (`ramp` borrows from the end of the gap, `measure_after`
    excludes it from the IPC), so a SMARTS run audited against this
    trajectory scores perfect agreement and zero cold-start error —
    the self-consistency test the audit suite asserts.
    """
    configs = configs if configs is not None else SimulatorConfigs()
    stack = build_simulation(workload, configs, warmup_prefix=warmup_prefix)
    hierarchy = stack.hierarchy
    predictor = stack.predictor
    reference = SmartsWarmup()
    reference.bind(SimulationContext(
        machine=stack.machine, hierarchy=hierarchy, predictor=predictor,
        regimen=regimen,
    ))

    states = []
    cluster_size = regimen.cluster_size
    position = 0
    for index, cluster_start in enumerate(regimen.cluster_starts()):
        ramp, gap = cluster_geometry(position, cluster_start, detail_ramp)
        if gap > 0:
            reference.skip(gap)
        position = cluster_start - ramp
        reference.pre_cluster()
        captured = _capture_state(index, cluster_start, hierarchy, predictor)
        result = stack.timing.run(cluster_size + ramp, measure_after=ramp)
        reference.post_cluster()
        # Mirror the controller loop: the hot cluster fetched blocks
        # outside machine.run, so the ifetch-continuity marker is stale.
        stack.machine.invalidate_fetch_block()
        position += result.instructions
        states.append(ReferenceState(ipc=result.ipc, **captured))

    true_run = measure_true_ipc(
        workload, regimen.total_instructions, configs,
        warmup_prefix=warmup_prefix,
    )
    return ReferenceTrajectory(
        workload_name=workload.name,
        true_ipc=true_run.ipc,
        states=tuple(states),
    )


def _capture_state(index: int, start: int, hierarchy: MemoryHierarchy,
                   predictor: BranchPredictor) -> dict:
    return {
        "cluster_index": index,
        "start": start,
        "cache_fingerprints": {
            level: getattr(hierarchy, level).state_fingerprint()
            for level in CACHE_LEVELS
        },
        "pht_counters": tuple(predictor.pht.counters),
        "ghr": predictor.pht.history,
        "btb_tags": tuple(predictor.btb.tags),
        "btb_targets": tuple(predictor.btb.targets),
        "ras_from_top": tuple(predictor.ras.contents_from_top()),
    }


#: In-process memo: trajectory computation is the audit's only expensive
#: step, and one matrix audits many methods against the same reference.
_TRAJECTORY_MEMO: dict[str, ReferenceTrajectory] = {}


def reference_trajectory_for(
    workload: Workload,
    regimen: SamplingRegimen,
    configs: SimulatorConfigs | None = None,
    warmup_prefix: int = 0,
    detail_ramp: int = 0,
    cache=None,
) -> ReferenceTrajectory:
    """Memoised/cached :func:`compute_reference_trajectory`.

    `cache` follows :func:`repro.harness.cache.resolve_cache` semantics:
    None consults ``REPRO_RESULT_CACHE``.  The key covers the full run
    identity (workload, regimen, prefix, ramp, configs, code digest), so
    worker processes and later sessions share one reference run.
    """
    configs = configs if configs is not None else SimulatorConfigs()
    key = cache_key(
        "audit-ref", workload.name,
        {"regimen": regimen, "warmup_prefix": warmup_prefix,
         "detail_ramp": detail_ramp},
        configs,
    )
    trajectory = _TRAJECTORY_MEMO.get(key)
    if trajectory is not None:
        return trajectory
    store = cache if cache is not None else resolve_cache()
    if store is not None:
        trajectory = store.get(key)
        if trajectory is not None:
            _TRAJECTORY_MEMO[key] = trajectory
            return trajectory
    trajectory = compute_reference_trajectory(
        workload, regimen, configs,
        warmup_prefix=warmup_prefix, detail_ramp=detail_ramp,
    )
    _TRAJECTORY_MEMO[key] = trajectory
    if store is not None:
        store.put(key, trajectory)
    return trajectory


def _diff_cache(cache, reference_fingerprint: tuple) -> tuple[float, float]:
    """(tag agreement, LRU-rank agreement) of one cache vs the reference.

    Tag agreement is the Jaccard overlap of resident (set, tag) pairs —
    position within the set does not matter.  LRU-rank agreement is the
    stricter positional score: the fraction of occupied (set, rank)
    slots holding the same tag on both sides, so replacement-order
    divergence is visible even when the resident lines agree.
    """
    fingerprint = cache.state_fingerprint()
    lines = {
        (set_index, tag)
        for set_index, row in enumerate(fingerprint)
        for tag in row if tag is not None
    }
    reference_lines = {
        (set_index, tag)
        for set_index, row in enumerate(reference_fingerprint)
        for tag in row if tag is not None
    }
    matches = 0
    occupied = 0
    for row, reference_row in zip(fingerprint, reference_fingerprint):
        for tag, reference_tag in zip(row, reference_row):
            if tag is None and reference_tag is None:
                continue
            occupied += 1
            if tag == reference_tag:
                matches += 1
    return _jaccard(lines, reference_lines), _ratio(matches, occupied)


def diff_against_reference(hierarchy: MemoryHierarchy,
                           predictor: BranchPredictor,
                           reference: ReferenceState) -> dict:
    """Score the live state against one reference cluster-entry state."""
    metrics: dict = {}
    for level in CACHE_LEVELS:
        tag_agreement, lru_agreement = _diff_cache(
            getattr(hierarchy, level), reference.cache_fingerprints[level]
        )
        metrics[f"{level}_tag_agreement"] = tag_agreement
        metrics[f"{level}_lru_agreement"] = lru_agreement

    counters = predictor.pht.counters
    reference_counters = reference.pht_counters
    total = len(reference_counters)
    equal = sum(
        1 for value, truth in zip(counters, reference_counters)
        if value == truth
    )
    same_prediction = sum(
        1 for value, truth in zip(counters, reference_counters)
        if (value >= 2) == (truth >= 2)
    )
    metrics["pht_counter_agreement"] = _ratio(equal, total)
    metrics["pht_prediction_agreement"] = _ratio(same_prediction, total)
    metrics["ghr_match"] = predictor.pht.history == reference.ghr

    btb = predictor.btb
    btb_equal = sum(
        1 for entry in range(btb.entries)
        if btb.tags[entry] == reference.btb_tags[entry]
        and btb.targets[entry] == reference.btb_targets[entry]
    )
    metrics["btb_agreement"] = _ratio(btb_equal, btb.entries)

    ras = tuple(predictor.ras.contents_from_top())
    reference_ras = reference.ras_from_top
    if not ras and not reference_ras:
        metrics["ras_agreement"] = 1.0
    else:
        ras_matches = sum(
            1 for mine, truth in zip(ras, reference_ras) if mine == truth
        )
        metrics["ras_agreement"] = _ratio(
            ras_matches, max(len(ras), len(reference_ras))
        )
    top = ras[0] if ras else None
    reference_top = reference_ras[0] if reference_ras else None
    metrics["ras_top_match"] = top == reference_top
    return metrics


class AuditProbe:
    """Cluster-boundary divergence probe driven by the controller loop.

    Built once per audited run; :meth:`before_cluster` captures the
    state diff and the PHT inference census at cluster entry (after the
    method's eager reconstruction, with pending on-demand work finalised
    first — finalisation is behaviour-neutral: drained values are
    identical to what in-cluster probes would reconstruct), and
    :meth:`after_cluster` completes the record with the error
    attribution once the cluster's IPC is known.  All probe work is
    charged to the ``audit`` phase timer, keeping the paper's three-
    phase cost split clean.
    """

    def __init__(self, trajectory: ReferenceTrajectory, hierarchy,
                 predictor, telemetry) -> None:
        self.trajectory = trajectory
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.telemetry = telemetry
        #: Reference states keyed by cluster index rather than position:
        #: a shard worker receives a single-state trajectory carrying
        #: only its own cluster, and probes it under the true index.
        self._states = {
            state.cluster_index: state for state in trajectory.states
        }
        self._partial: dict[int, dict] = {}

    @classmethod
    def for_run(cls, simulator, hierarchy, predictor,
                telemetry) -> "AuditProbe":
        """Build a probe for one controller run (reference is cached)."""
        trajectory = reference_trajectory_for(
            simulator.workload, simulator.regimen, simulator.configs,
            warmup_prefix=simulator.warmup_prefix,
            detail_ramp=simulator.detail_ramp,
        )
        return cls(trajectory, hierarchy, predictor, telemetry)

    def before_cluster(self, index: int, method) -> None:
        """Diff reconstructed state at cluster entry (post pre_cluster)."""
        with self.telemetry.phase(PHASE_AUDIT):
            census = None
            take_census = getattr(method, "audit_census", None)
            if take_census is not None:
                # The census must precede finalisation: it reads the armed
                # on-demand engine, which a drain consumes.
                census = take_census()
            method.finalize_pending()
            reference = self._states[index]
            metrics = diff_against_reference(
                self.hierarchy, self.predictor, reference
            )
            for key in CENSUS_KEYS:
                metrics[key] = None if census is None else census[key]
            self._partial[index] = metrics

    def after_cluster(self, index: int, method, ipc: float) -> None:
        """Complete and emit the audit record once the IPC is known."""
        with self.telemetry.phase(PHASE_AUDIT):
            metrics = self._partial.pop(index)
            reference = self._states[index]
            record = {
                "type": RECORD_AUDIT,
                "workload": self.trajectory.workload_name,
                "method": method.name,
                "cluster": index,
                "start": reference.start,
                **metrics,
                "ipc": ipc,
                "ref_ipc": reference.ipc,
                "true_ipc": self.trajectory.true_ipc,
                "cold_start_error": ipc - reference.ipc,
                "sampling_error": reference.ipc - self.trajectory.true_ipc,
            }
            telemetry = self.telemetry
            telemetry.emit(record)
            telemetry.count("audit.clusters_probed")
            for name in ("l1d_tag_agreement", "l2_tag_agreement",
                         "pht_counter_agreement", "btb_agreement",
                         "ras_agreement"):
                telemetry.observe(f"audit.{name}", record[name])
            telemetry.observe("audit.cold_start_error",
                              record["cold_start_error"])
            telemetry.observe("audit.sampling_error",
                              record["sampling_error"])
            if record["pht_ambiguity_mass"] is not None:
                telemetry.count("audit.pht_exact", record["pht_exact"])
                telemetry.count(
                    "audit.pht_ambiguous",
                    record["pht_ambiguous_two"]
                    + record["pht_ambiguous_three"],
                )
                telemetry.count("audit.pht_stale", record["pht_stale"])
                telemetry.observe("audit.pht_ambiguity_mass",
                                  record["pht_ambiguity_mass"])
