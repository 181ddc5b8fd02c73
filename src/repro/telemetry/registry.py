"""Metric instruments and their registry.

Three instrument kinds cover the reproduction's measurement needs:

- **Counter** — a monotonically increasing event count (log records
  buffered, cache blocks reconstructed, PHT entries inferred, ...);
- **Gauge** — a point-in-time value overwritten on every set (clusters
  in the regimen, wall seconds of the last run, ...);
- **Histogram** — a streaming summary (count/total/min/max) of a value
  observed once per event (per-cluster IPC, gap length, ...).

A :class:`MetricsRegistry` lazily creates instruments by name, so call
sites never declare metrics up front.  The :class:`NullRegistry` — the
default backend when telemetry is disabled — hands out shared no-op
instruments: the hot path pays one dict hit and one no-op method call,
nothing else, which keeps the disabled-overhead budget near zero.

Metric naming convention: dotted ``area.event`` lowercase names, e.g.
``reconstruct.blocks_applied`` (see docs/observability.md for the full
catalogue).
"""

from __future__ import annotations

from dataclasses import dataclass


class Counter:
    """Monotonic event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-write-wins point-in-time value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


@dataclass
class HistogramSummary:
    """Picklable streaming summary of one histogram."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "HistogramSummary") -> "HistogramSummary":
        return HistogramSummary(
            count=self.count + other.count,
            total=self.total + other.total,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
        )


class Histogram:
    """Streaming value summary (no buckets: laptop-scale runs only need
    count/total/extremes, and a fixed-size summary keeps snapshots
    picklable and cheap to merge)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def summary(self) -> HistogramSummary:
        return HistogramSummary(count=self.count, total=self.total,
                                min=self.min, max=self.max)

    def absorb(self, summary: HistogramSummary) -> None:
        """Fold another histogram's summary into this one."""
        self.count += summary.count
        self.total += summary.total
        self.min = min(self.min, summary.min)
        self.max = max(self.max, summary.max)


class MetricsRegistry:
    """Lazily creates and stores instruments by name."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name)
        return instrument

    def counter_values(self) -> dict[str, int]:
        return {name: c.value for name, c in self.counters.items()}

    def gauge_values(self) -> dict[str, float]:
        return {name: g.value for name, g in self.gauges.items()}

    def histogram_summaries(self) -> dict[str, HistogramSummary]:
        return {name: h.summary() for name, h in self.histograms.items()}


class _NullCounter:
    __slots__ = ()
    name = "<null>"
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = "<null>"
    value = 0.0

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = "<null>"

    def observe(self, value: float) -> None:
        pass

    def summary(self) -> HistogramSummary:
        return HistogramSummary()


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class NullRegistry:
    """The disabled backend: every lookup returns a shared no-op
    instrument, so instrumented code runs unchanged at near-zero cost."""

    __slots__ = ()

    counters: dict = {}
    gauges: dict = {}
    histograms: dict = {}

    def counter(self, name: str):
        return NULL_COUNTER

    def gauge(self, name: str):
        return NULL_GAUGE

    def histogram(self, name: str):
        return NULL_HISTOGRAM

    def counter_values(self) -> dict:
        return {}

    def gauge_values(self) -> dict:
        return {}

    def histogram_summaries(self) -> dict:
        return {}


NULL_REGISTRY = NullRegistry()
