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
  warm-up" proxy) through the serial walk itself
  (:func:`~repro.sampling.pipeline.record_cluster_entries`), and keeps
  the :class:`~repro.sampling.controller.WarmState` at every cluster
  entry plus each cluster's reference IPC and the population's true IPC.
  Being the same walk, the reference cannot drift from the runs it
  audits.  The trajectory is deterministic, picklable, and cached —
  in-process and, as a ``results`` entry of :mod:`repro.store`, on
  disk — so auditing a whole method matrix pays for the reference once.
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
from ..store import expect_instance, resolve_store, result_store_key
from ..sampling.controller import (
    SimulatorConfigs,
    WarmState,
    measure_true_ipc,
)
from ..sampling.pipeline import ClusterEntry, record_cluster_entries
from ..sampling.regimen import SamplingRegimen
from ..telemetry import RECORD_AUDIT
from ..warmup.fixed_period import SmartsWarmup
from ..workloads import Workload
from .fidelity import _jaccard, _ratio

#: Cache levels audited, in report order.
CACHE_LEVELS = ("l1i", "l1d", "l2")

#: Census keys produced by ``ReverseBranchReconstructor.inference_census``;
#: audited methods that do not reconstruct the PHT report them as None.
CENSUS_KEYS = (
    "pht_entries_mentioned",
    "pht_exact",
    "pht_ambiguous_two",
    "pht_ambiguous_three",
    "pht_stale",
    "pht_ambiguity_mass",
)


@dataclass(frozen=True)
class ReferenceTrajectory:
    """One workload's reference cluster entries and true IPC.

    Each entry holds the SMARTS walk's :class:`WarmState` at a cluster
    entry — after the gap's full warming, before the detailed ramp and
    cluster, the boundary at which the probe diffs the audited method —
    and that cluster's reference IPC (same ramp/measure window as the
    audited run).
    """

    workload_name: str
    true_ipc: float
    states: tuple[ClusterEntry, ...]


def compute_reference_trajectory(
    workload: Workload,
    regimen: SamplingRegimen,
    configs: SimulatorConfigs | None = None,
    warmup_prefix: int = 0,
    detail_ramp: int = 0,
) -> ReferenceTrajectory:
    """The serial walk of SMARTS, captured at every cluster entry.

    A SMARTS run audited against this trajectory scores perfect
    agreement and zero cold-start error — the self-consistency test the
    audit suite asserts.
    """
    configs = configs if configs is not None else SimulatorConfigs()
    states = record_cluster_entries(
        workload, regimen, configs, SmartsWarmup(),
        warmup_prefix=warmup_prefix, detail_ramp=detail_ramp,
    )
    true_run = measure_true_ipc(
        workload, regimen.total_instructions, configs,
        warmup_prefix=warmup_prefix,
    )
    return ReferenceTrajectory(
        workload_name=workload.name,
        true_ipc=true_run.ipc,
        states=states,
    )


#: In-process memo: trajectory computation is the audit's only expensive
#: step, and one matrix audits many methods against the same reference.
_TRAJECTORY_MEMO: dict[str, ReferenceTrajectory] = {}


def reference_trajectory_for(
    workload: Workload,
    regimen: SamplingRegimen,
    configs: SimulatorConfigs | None = None,
    warmup_prefix: int = 0,
    detail_ramp: int = 0,
) -> ReferenceTrajectory:
    """Memoised/cached :func:`compute_reference_trajectory`.

    The disk layer is the ``REPRO_RESULT_CACHE`` result cache.  The key
    covers the full run identity (workload, regimen, prefix, ramp,
    configs, code digest), so worker processes and later sessions share
    one reference run; a stored value that is not a
    :class:`ReferenceTrajectory` is a warned miss.
    """
    configs = configs if configs is not None else SimulatorConfigs()
    key = result_store_key(
        "audit-ref", workload.name,
        {"regimen": regimen, "warmup_prefix": warmup_prefix,
         "detail_ramp": detail_ramp},
        configs,
    )
    trajectory = _TRAJECTORY_MEMO.get(key)
    if trajectory is not None:
        return trajectory
    store = resolve_store(layer="results")
    if store is not None:
        trajectory = store.get(key, "results",
                               validate=expect_instance(ReferenceTrajectory))
        if trajectory is not None:
            _TRAJECTORY_MEMO[key] = trajectory
            return trajectory
    trajectory = compute_reference_trajectory(
        workload, regimen, configs,
        warmup_prefix=warmup_prefix, detail_ramp=detail_ramp,
    )
    _TRAJECTORY_MEMO[key] = trajectory
    if store is not None:
        store.put(key, trajectory, "results")
    return trajectory


def _diff_cache(cache, reference_fingerprint: tuple) -> tuple[float, float]:
    """(line agreement, LRU-rank agreement) of one cache vs the reference.

    Line agreement is the Jaccard overlap of resident lines — position
    within the set does not matter.  LRU-rank agreement is the stricter
    positional score: the fraction of occupied (set, rank) slots holding
    the same line on both sides, so replacement-order divergence is
    visible even when the resident lines agree.
    """
    fingerprint = cache.state_fingerprint()
    lines = {line for row in fingerprint for line in row if line is not None}
    reference_lines = {line for row in reference_fingerprint
                       for line in row if line is not None}
    matches = 0
    occupied = 0
    for row, reference_row in zip(fingerprint, reference_fingerprint):
        for line, reference_line in zip(row, reference_row):
            if line is None and reference_line is None:
                continue
            occupied += 1
            if line == reference_line:
                matches += 1
    return _jaccard(lines, reference_lines), _ratio(matches, occupied)


def _fingerprint(cache_state: dict) -> tuple:
    """``Cache.state_fingerprint()`` of an ``export_state()`` snapshot:
    per set, its line numbers in MRU->LRU order, None for an invalid
    block."""
    return tuple(tuple(line if line >= 0 else None for line in row)
                 for row in cache_state["rows"])


def _ras_from_top(predictor_state: dict) -> tuple[int, ...]:
    """``ReturnAddressStack.contents_from_top()`` of a predictor
    ``export_state()`` snapshot."""
    stack = predictor_state["ras_stack"]
    top = predictor_state["ras_top"]
    return tuple(stack[(top - offset) % len(stack)]
                 for offset in range(predictor_state["ras_depth"]))


def diff_against_reference(hierarchy: MemoryHierarchy,
                           predictor: BranchPredictor,
                           reference: WarmState) -> dict:
    """Score the live state against one reference cluster-entry state."""
    metrics: dict = {}
    for level, cache_state in zip(CACHE_LEVELS, reference.caches):
        tag_agreement, lru_agreement = _diff_cache(
            getattr(hierarchy, level), _fingerprint(cache_state)
        )
        metrics[f"{level}_tag_agreement"] = tag_agreement
        metrics[f"{level}_lru_agreement"] = lru_agreement

    reference_predictor = reference.predictor
    counters = predictor.pht.counters
    reference_counters = reference_predictor["counters"]
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
    metrics["ghr_match"] = (predictor.pht.history
                            == reference_predictor["history"])

    btb = predictor.btb
    reference_tags = reference_predictor["btb_tags"]
    reference_targets = reference_predictor["btb_targets"]
    btb_equal = sum(
        1 for entry in range(btb.entries)
        if btb.tags[entry] == reference_tags[entry]
        and btb.targets[entry] == reference_targets[entry]
    )
    metrics["btb_agreement"] = _ratio(btb_equal, btb.entries)

    ras = tuple(predictor.ras.contents_from_top())
    reference_ras = _ras_from_top(reference_predictor)
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
    method's reconstruction), and
    :meth:`after_cluster` completes the record with the error
    attribution once the cluster's IPC is known.  The cluster step
    charges both calls to the ``audit`` phase, keeping the paper's
    three-phase cost split clean.
    """

    def __init__(self, trajectory: ReferenceTrajectory, telemetry) -> None:
        self.trajectory = trajectory
        self.telemetry = telemetry
        #: Reference states keyed by cluster index rather than position:
        #: a shard worker receives a single-state trajectory carrying
        #: only its own cluster, and probes it under the true index.
        self._states = {
            state.cluster_index: state for state in trajectory.states
        }
        self._partial: dict[int, dict] = {}

    def before_cluster(self, index: int, method, stack, ramp: int) -> None:
        """Diff reconstructed state at cluster entry (post pre_cluster)."""
        take_census = getattr(method, "audit_census", None)
        census = take_census() if take_census is not None else None
        metrics = diff_against_reference(
            stack.hierarchy, stack.predictor, self._states[index].state
        )
        for key in CENSUS_KEYS:
            metrics[key] = None if census is None else census[key]
        self._partial[index] = metrics

    def after_cluster(self, index: int, method, ipc: float) -> None:
        """Complete and emit the audit record once the IPC is known."""
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
