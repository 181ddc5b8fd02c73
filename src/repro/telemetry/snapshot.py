"""Picklable telemetry snapshots and their merge algebra.

A snapshot is the frozen outcome of one telemetry session: counter
totals, accumulated phase seconds, histogram summaries, gauge values,
and the buffered per-cluster trace records.  Snapshots are built from
plain dicts/lists/dataclasses, so they pickle across the parallel
engine's process boundary unchanged — ``SampledRunResult.extra``
carries one per traced run, and :func:`merge_snapshots` folds the
per-cell snapshots back into a run-level profile that is identical
whether the grid ran serially or fanned out over workers.

Merge semantics: counters and phase seconds add and histograms combine
their streaming summaries, by the one rule :func:`fold_totals` that
:meth:`~.session.Telemetry.absorb` applies too; gauges add (every gauge
the stack sets is a per-run quantity — wall seconds, cluster counts —
whose sum is the run-level total); trace records concatenate and are
re-sorted into the deterministic (workload, method, cluster) order so
the merged profile does not depend on worker completion order.
Timeline records (spans, counter samples, run markers) concatenate and
re-sort on the reconciled run timeline (ts, pid, tid, id), which is
equally completion-order independent: ids are stamped per process and
timestamps are run-origin relative.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class HistogramSummary:
    """Streaming summary of one histogram: count, total and extremes.

    No buckets: laptop-scale runs only need these four fields, and a
    fixed-size summary keeps snapshots picklable and cheap to merge.  A
    live session observes into its summaries in place; snapshots hold
    copies.
    """

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "HistogramSummary") -> "HistogramSummary":
        return HistogramSummary(
            count=self.count + other.count,
            total=self.total + other.total,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
        )


def fold_totals(counters: dict, histograms: dict, phase_seconds: dict,
                snapshot: "TelemetrySnapshot") -> None:
    """Fold `snapshot`'s totals into the three dicts, in place.

    The one fold rule: counters and phase seconds add, histograms
    combine.  Every histogram entry it writes is a new summary, so the
    dicts never share one with `snapshot`.
    """
    for name, value in snapshot.counters.items():
        counters[name] = counters.get(name, 0) + value
    for name, summary in snapshot.histograms.items():
        histograms[name] = histograms.get(name, HistogramSummary()).merge(
            summary)
    for name, seconds in snapshot.phase_seconds.items():
        phase_seconds[name] = phase_seconds.get(name, 0.0) + seconds


@dataclass
class TelemetrySnapshot:
    """Frozen, picklable outcome of one telemetry session."""

    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramSummary] = field(default_factory=dict)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    trace_records: list[dict] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)

    def merge(self, other: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """Combine two snapshots (see module docstring for semantics)."""
        counters = dict(self.counters)
        histograms = dict(self.histograms)
        phases = dict(self.phase_seconds)
        fold_totals(counters, histograms, phases, other)
        gauges = dict(self.gauges)
        for name, value in other.gauges.items():
            gauges[name] = gauges.get(name, 0.0) + value
        records = sorted(
            self.trace_records + other.trace_records, key=_record_order
        )
        spans = sorted(self.spans + other.spans, key=_span_order)
        return TelemetrySnapshot(
            counters=counters,
            gauges=gauges,
            histograms=histograms,
            phase_seconds=phases,
            trace_records=records,
            spans=spans,
        )

    def is_empty(self) -> bool:
        """True when the session recorded nothing at all."""
        return not (
            self.counters
            or self.gauges
            or self.histograms
            or self.phase_seconds
            or self.trace_records
            or self.spans
        )

    def __bool__(self) -> bool:
        """A snapshot is truthy exactly when it carries data."""
        return not self.is_empty()

    def total_phase_seconds(self) -> float:
        return sum(self.phase_seconds.values())


def _record_order(record: dict) -> tuple:
    return (
        record.get("workload", ""),
        record.get("method", ""),
        record.get("cluster", -1),
    )


def _span_order(record: dict) -> tuple:
    return (
        record.get("ts", 0),
        record.get("pid", 0),
        record.get("tid", 0),
        record.get("id", ""),
    )


#: Shared empty snapshot, the identity of the merge semigroup.  APIs
#: that promise to always hand back a snapshot (``merged_telemetry``)
#: return this sentinel instead of None for untraced grids, so callers
#: can write ``if snapshot:`` / iterate ``snapshot.trace_records``
#: without a None guard.  Treat it as read-only: ``merge`` returns new
#: objects, so the sentinel is never mutated by the normal fold.
EMPTY_SNAPSHOT = TelemetrySnapshot()


def merge_snapshots(snapshots) -> TelemetrySnapshot | None:
    """Fold an iterable of snapshots (Nones ignored) into one profile.

    Returns None when nothing was collected — callers use that to skip
    telemetry reporting entirely for untraced runs.  Callers that want a
    total function use :data:`EMPTY_SNAPSHOT` as the fallback (that is
    what :func:`repro.harness.merged_telemetry` does).
    """
    merged: TelemetrySnapshot | None = None
    for snapshot in snapshots:
        if snapshot is None:
            continue
        merged = snapshot if merged is None else merged.merge(snapshot)
    return merged
