"""Telemetry sessions: phase timers, metrics, and cluster trace scoping.

A :class:`Telemetry` session is created per sampled run and threaded
down the stack (controller -> warm-up method -> core reconstruction) via
:class:`~repro.warmup.base.SimulationContext`.  It owns

- a :class:`~.registry.MetricsRegistry` of counters/gauges/histograms,
- cumulative **phase timers** — ``cold_skip`` (functional skip of the
  inter-cluster gap), ``reconstruct`` (eager state repair at the cluster
  boundary), ``hot_sim`` (detailed ramp + cluster simulation) — each the
  summed duration of its ``cat="phase"`` spans when spans are on, and
- the buffered per-cluster **trace records**.

In a sharded run the session takes in every shard worker's snapshot
(:meth:`Telemetry.absorb`), so it ends holding the whole run's telemetry.

The controller brackets each cluster with :meth:`begin_cluster` /
:meth:`end_cluster`; any counter incremented and any phase timed inside
the bracket is attributed to that cluster's trace record as a delta, so
instrumented code deep in the core never needs to know which cluster is
running.

:data:`NULL_TELEMETRY` is the default backend: every operation is a
no-op against shared singletons, keeping the disabled hot path within
the issue's <5% overhead budget (measured far below — one attribute
check and a handful of no-op calls per cluster).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from .events import EVENT_CLUSTER, emit_event, events_path_from_env
from .registry import MetricsRegistry, NULL_REGISTRY
from .runid import run_id_from_env
from .snapshot import TelemetrySnapshot
from .spans import (
    NULL_SPANS,
    _NULL_SPAN,
    recorder_from_env,
    rss_high_water_kb,
)
from .trace import (
    RECORD_CLUSTER,
    append_trace,
    collection_enabled,
    trace_path_from_env,
)

#: Canonical phase-timer names (docs/observability.md).
PHASE_COLD_SKIP = "cold_skip"
PHASE_RECONSTRUCT = "reconstruct"
PHASE_HOT_SIM = "hot_sim"
PHASES = (PHASE_COLD_SKIP, PHASE_RECONSTRUCT, PHASE_HOT_SIM)

#: Phase charged by the accuracy-audit probes (``REPRO_AUDIT``); not in
#: :data:`PHASES` because it is observability overhead, not part of the
#: sampled-simulation loop the paper's cost model argues about.
PHASE_AUDIT = "audit"

#: Counter names promoted to top-level trace-record fields.
METRIC_BLOCKS_RECONSTRUCTED = "reconstruct.blocks_applied"
METRIC_PHT_ENTRIES = "reconstruct.pht_entries"


class Telemetry:
    """One enabled telemetry session (typically: one sampled run)."""

    enabled = True

    def __init__(self, trace_path: str | None = None, spans=None) -> None:
        self.registry = MetricsRegistry()
        self.trace_path = trace_path
        #: Span backend — resolved from ``REPRO_SPANS`` unless an
        #: explicit recorder (or the null one) is injected.
        self.spans = spans if spans is not None else recorder_from_env()
        self.events_path = events_path_from_env()
        #: Ambient correlation id (None: trace records not stamped).
        self.run_id = run_id_from_env()
        self.phase_seconds: dict[str, float] = {}
        self.trace_records: list[dict] = []
        self._flushed = 0
        self._in_cluster = False
        self._cluster_phases: dict[str, float] = {}
        self._cluster_counters: dict[str, int] = {}

    # -- instruments ---------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        self.registry.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        self.registry.histogram(name).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        self.registry.gauge(name).set(value)

    # -- phase timers --------------------------------------------------------

    @contextmanager
    def phase(self, name: str):
        """Time one phase: the only phase bracket.

        The phase's seconds and, when spans are on, its ``cat="phase"``
        span come from the same two clock readings, so a phase timer is
        exactly the summed duration of its phase spans.
        """
        spans = self.spans
        start_ns = time.perf_counter_ns()
        if spans.enabled:
            spans.open(name, "phase", start_ns)
        try:
            yield
        finally:
            end_ns = time.perf_counter_ns()
            if spans.enabled:
                spans.close(end_ns)
            self._add_phase(name, (end_ns - start_ns) / 1e9)

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, cat: str = "repro", **args):
        """Open a hierarchical span (no-op when spans are disabled)."""
        return self.spans.span(name, cat=cat, **args)

    def sample_span_counters(self) -> None:
        """Emit counter-track samples at a span boundary.

        Samples the skip-log and reconstruction totals plus the
        process's RSS high-water (and tracemalloc peak, when tracing is
        already on) so the Perfetto export grows stepped counter tracks
        alongside the span lanes.  Skipped entirely when spans are off.
        """
        recorder = self.spans
        if not recorder.enabled:
            return
        values = self.registry.counter_values()
        for name in ("log.stored_records", METRIC_BLOCKS_RECONSTRUCTED):
            if name in values:
                recorder.counter(name, values[name])
        rss = rss_high_water_kb()
        if rss is not None:
            recorder.counter("process.rss_high_water_kb", rss)
        import tracemalloc

        if tracemalloc.is_tracing():
            _, peak = tracemalloc.get_traced_memory()
            recorder.counter("process.tracemalloc_peak_bytes", peak)

    def _add_phase(self, name: str, seconds: float) -> None:
        self.phase_seconds[name] = (
            self.phase_seconds.get(name, 0.0) + seconds
        )
        if self._in_cluster:
            self._cluster_phases[name] = (
                self._cluster_phases.get(name, 0.0) + seconds
            )

    # -- per-cluster trace scoping ------------------------------------------

    def begin_cluster(self) -> None:
        """Open a cluster scope: phase times and counter increments from
        here to :meth:`end_cluster` are attributed to this cluster."""
        self._in_cluster = True
        self._cluster_phases = {}
        self._cluster_counters = self.registry.counter_values()

    def end_cluster(self, fields: dict) -> dict:
        """Close the cluster scope and buffer its trace record.

        `fields` carries the controller-known facts (workload, method,
        cluster index, gap, IPC, warm-update deltas...); the session adds
        per-phase seconds, their sum as ``wall_seconds``, and the deltas
        of every counter touched inside the scope.
        """
        record = {"type": RECORD_CLUSTER, **fields}
        if self.run_id is not None:
            record["run_id"] = self.run_id
        phases = self._cluster_phases
        for name in PHASES:
            record[f"{name}_seconds"] = phases.get(name, 0.0)
        # Extra phases (e.g. the audit probe) get their own fields too,
        # keeping the invariant wall_seconds == sum of *_seconds fields.
        for name in sorted(phases):
            if name not in PHASES:
                record[f"{name}_seconds"] = phases[name]
        record["wall_seconds"] = sum(phases.values())
        before = self._cluster_counters
        deltas = {}
        for name, value in self.registry.counter_values().items():
            delta = value - before.get(name, 0)
            if delta:
                deltas[name] = delta
        record["blocks_reconstructed"] = deltas.pop(
            METRIC_BLOCKS_RECONSTRUCTED, 0
        )
        record["pht_entries_reconstructed"] = deltas.pop(
            METRIC_PHT_ENTRIES, 0
        )
        if deltas:
            record["counters"] = deltas
        self._in_cluster = False
        self.trace_records.append(record)
        self.sample_span_counters()
        if self.events_path is not None:
            emit_event(
                self.events_path,
                EVENT_CLUSTER,
                workload=record.get("workload"),
                method=record.get("method"),
                cluster=record.get("cluster"),
                wall_seconds=record.get("wall_seconds"),
            )
        return record

    def emit(self, record: dict) -> None:
        """Buffer an arbitrary extra trace record (run_id-stamped)."""
        if self.run_id is not None and "run_id" not in record:
            record = {**record, "run_id": self.run_id}
        self.trace_records.append(record)

    def absorb(self, snapshot: TelemetrySnapshot) -> None:
        """Fold another session's snapshot into this one.

        How a sharded run takes in each shard worker's session: trace
        records are re-emitted, spans adopted as recorded (the propagated
        span context already parented and timed them), counters and
        phase seconds add, histograms merge.  Gauges are per-run facts
        the absorbing session sets itself.
        """
        for record in snapshot.trace_records:
            self.emit(record)
        self.spans.adopt(snapshot.spans)
        registry = self.registry
        for name, value in snapshot.counters.items():
            registry.counter(name).inc(value)
        for name, summary in snapshot.histograms.items():
            registry.histogram(name).absorb(summary)
        phases = self.phase_seconds
        for name, seconds in snapshot.phase_seconds.items():
            phases[name] = phases.get(name, 0.0) + seconds

    # -- output --------------------------------------------------------------

    def snapshot(self) -> TelemetrySnapshot:
        """Freeze the session into a picklable snapshot."""
        registry = self.registry
        return TelemetrySnapshot(
            counters=registry.counter_values(),
            gauges=registry.gauge_values(),
            histograms=registry.histogram_summaries(),
            phase_seconds=dict(self.phase_seconds),
            trace_records=list(self.trace_records),
            spans=self.spans.export(),
        )

    def flush_trace(self) -> int:
        """Append not-yet-written records to ``trace_path`` (one batch).

        A no-op without a trace path; safe to call repeatedly — each
        record is written at most once.
        """
        if self.trace_path is None:
            return 0
        pending = self.trace_records[self._flushed:]
        written = append_trace(pending, self.trace_path)
        self._flushed += written
        return written

    def flush_spans(self) -> int:
        """Flush the span recorder's pending records to its JSONL path."""
        return self.spans.flush()


class NullTelemetry:
    """The disabled backend: accepts the full session API as no-ops."""

    enabled = False
    trace_path = None
    registry = NULL_REGISTRY
    phase_seconds: dict = {}
    trace_records: list = []
    spans = NULL_SPANS
    events_path = None

    __slots__ = ()

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def phase(self, name: str):
        return _NULL_SPAN

    def span(self, name: str, cat: str = "repro", **args):
        return _NULL_SPAN

    def sample_span_counters(self) -> None:
        pass

    def begin_cluster(self) -> None:
        pass

    def end_cluster(self, fields: dict) -> None:
        return None

    def emit(self, record: dict) -> None:
        pass

    def snapshot(self) -> None:
        return None

    def flush_trace(self) -> int:
        return 0

    def flush_spans(self) -> int:
        return 0


NULL_TELEMETRY = NullTelemetry()


def telemetry_from_env() -> Telemetry | NullTelemetry:
    """Resolve the default backend from the environment.

    ``REPRO_TRACE=<path>`` enables collection and appends each run's
    records to the file; ``REPRO_TELEMETRY=1`` enables in-memory
    collection only (snapshots, no file).  Unset: the null backend.
    """
    path = trace_path_from_env()
    if path is not None:
        return Telemetry(trace_path=path)
    if collection_enabled():
        return Telemetry()
    return NULL_TELEMETRY
