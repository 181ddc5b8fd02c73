"""State-level warm-up fidelity analysis.

IPC error is the paper's end metric, but the mechanism is state: how much
of the cache and branch-predictor contents does a warm-up method get
right at each cluster entry?  This module runs a method side by side
with a SMARTS reference over identical instruction streams and scores
the microarchitectural state at every cluster boundary:

- per-cache Jaccard overlap of resident line addresses,
- fraction of PHT counters that agree exactly,
- fraction of agreeing counters among entries whose *prediction*
  (taken/not-taken boundary) matters,
- GHR equality, BTB entry agreement, RAS top-of-stack equality.

The diagnosis behind Figures 5-7: cache overlap tracks IPC accuracy far
more tightly than predictor agreement does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..branch import BranchPredictor
from ..cache import MemoryHierarchy
from ..sampling.controller import SimulatorConfigs, build_simulation
from ..sampling.pipeline import record_cluster_entries
from ..sampling.regimen import SamplingRegimen
from ..warmup.base import WarmupMethod
from ..warmup.fixed_period import SmartsWarmup
from ..workloads import Workload


@dataclass
class StateFidelity:
    """State agreement between a method and the SMARTS reference at one
    cluster boundary."""

    cluster_index: int
    start_instruction: int
    l1i_overlap: float
    l1d_overlap: float
    l2_overlap: float
    counter_agreement: float
    prediction_agreement: float
    ghr_match: bool
    btb_agreement: float
    ras_top_match: bool


@dataclass
class FidelityReport:
    """Per-cluster fidelity records plus aggregate means."""

    workload_name: str
    method_name: str
    records: list[StateFidelity] = field(default_factory=list)

    def mean(self, attribute: str) -> float:
        if not self.records:
            return 0.0
        values = [getattr(record, attribute) for record in self.records]
        return sum(float(v) for v in values) / len(values)

    def summary(self) -> dict:
        return {
            attribute: self.mean(attribute)
            for attribute in (
                "l1i_overlap", "l1d_overlap", "l2_overlap",
                "counter_agreement", "prediction_agreement",
                "ghr_match", "btb_agreement", "ras_top_match",
            )
        }


def _jaccard(a: set, b: set) -> float:
    """Jaccard similarity, with two empty sets defined as identical (1.0).

    An empty cache compared against an empty cache has no disagreement
    to report — the vacuous case scores perfect agreement, consistently
    with :func:`_ratio` below.
    """
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


def _ratio(numerator: float, denominator: float) -> float:
    """Agreement ratio with the vacuous case (nothing to compare) as 1.0."""
    if denominator == 0:
        return 1.0
    return numerator / denominator


def _compare_states(
    cluster_index: int,
    start: int,
    hierarchy: MemoryHierarchy,
    predictor: BranchPredictor,
    reference_hierarchy: MemoryHierarchy,
    reference_predictor: BranchPredictor,
) -> StateFidelity:
    counters = predictor.pht.counters
    reference_counters = reference_predictor.pht.counters
    total = len(counters)
    equal = sum(
        1 for value, truth in zip(counters, reference_counters)
        if value == truth
    )
    same_prediction = sum(
        1 for value, truth in zip(counters, reference_counters)
        if (value >= 2) == (truth >= 2)
    )
    btb_total = predictor.btb.entries
    btb_equal = sum(
        1 for entry in range(btb_total)
        if predictor.btb.tags[entry] == reference_predictor.btb.tags[entry]
        and predictor.btb.targets[entry]
        == reference_predictor.btb.targets[entry]
    )
    return StateFidelity(
        cluster_index=cluster_index,
        start_instruction=start,
        l1i_overlap=_jaccard(hierarchy.l1i.contents(),
                             reference_hierarchy.l1i.contents()),
        l1d_overlap=_jaccard(hierarchy.l1d.contents(),
                             reference_hierarchy.l1d.contents()),
        l2_overlap=_jaccard(hierarchy.l2.contents(),
                            reference_hierarchy.l2.contents()),
        counter_agreement=_ratio(equal, total),
        prediction_agreement=_ratio(same_prediction, total),
        ghr_match=predictor.pht.history == reference_predictor.pht.history,
        btb_agreement=_ratio(btb_equal, btb_total),
        ras_top_match=predictor.ras.peek() == reference_predictor.ras.peek(),
    )


def measure_state_fidelity(
    workload: Workload,
    regimen: SamplingRegimen,
    method: WarmupMethod,
    configs: SimulatorConfigs | None = None,
    warmup_prefix: int = 0,
) -> FidelityReport:
    """Score `method`'s warmed state against SMARTS at every cluster.

    Both run the serial walk over the identical instruction stream (same
    program, same seeds), so any state difference is purely the warm-up
    policy's doing.  Each walk's state is captured at cluster *entry*,
    the state hot execution will consume: after the method's
    reconstruction (pre_cluster).
    """
    configs = configs if configs is not None else SimulatorConfigs()
    entries = record_cluster_entries(workload, regimen, configs, method,
                                     warmup_prefix=warmup_prefix)
    reference = record_cluster_entries(workload, regimen, configs,
                                       SmartsWarmup(),
                                       warmup_prefix=warmup_prefix)
    stack = build_simulation(workload, configs)
    ref_stack = build_simulation(workload, configs)
    report = FidelityReport(
        workload_name=workload.name, method_name=method.name,
    )
    for entry, ref_entry in zip(entries, reference):
        entry.state.restore(stack)
        ref_entry.state.restore(ref_stack)
        report.records.append(_compare_states(
            entry.cluster_index, entry.start, stack.hierarchy,
            stack.predictor, ref_stack.hierarchy, ref_stack.predictor,
        ))
    return report
