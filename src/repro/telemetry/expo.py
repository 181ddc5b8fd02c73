"""Prometheus-style metrics exposition, stdlib only.

The in-engine :class:`~.session.Telemetry` session is deliberately
minimal on the hot path — counters, gauges, and *streaming* histograms
(count/total/min/max, no buckets).  This module is the cold side: it
aggregates those values (plus service-side measurements) into
fixed-bucket :class:`BucketHistogram` distributions and renders
everything in the Prometheus text exposition format (version 0.0.4),
the lingua franca every scrape-based monitoring stack ingests::

    # HELP repro_job_run_seconds Job execution latency.
    # TYPE repro_job_run_seconds histogram
    repro_job_run_seconds_bucket{kind="sample",le="0.25"} 3
    ...
    repro_job_run_seconds_sum{kind="sample"} 0.41
    repro_job_run_seconds_count{kind="sample"} 3

Three consumers share it:

- ``GET /metrics`` on the simulation service (live scrape),
- the ``repro metrics`` CLI (the same exposition re-rendered from a
  completed run's ``REPRO_TRACE`` record file), and
- :func:`parse_exposition`, a strict stdlib parser the tests and the CI
  metrics-smoke job use to validate whatever the other two emit.
"""

from __future__ import annotations

import math
import re

#: Default latency buckets (seconds).  Wide enough for both sub-second
#: HTTP handling and multi-minute matrix jobs; finite buckets only —
#: the implicit ``+Inf`` bucket is added at render time.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_KINDS = ("counter", "gauge", "histogram")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _check_labels(labels: "dict | None") -> tuple:
    if not labels:
        return ()
    items = []
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
        items.append((key, str(labels[key])))
    return tuple(items)


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format (\\, ", newline)."""
    return (value.replace("\\", "\\\\")
            .replace("\n", "\\n")
            .replace('"', '\\"'))


def _format_number(value: float) -> str:
    """Canonical sample-value spelling: ints bare, floats via repr."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _render_labels(items: tuple, extra: "tuple | None" = None) -> str:
    pairs = list(items) + list(extra or ())
    if not pairs:
        return ""
    body = ",".join(
        f'{key}="{escape_label_value(value)}"' for key, value in pairs
    )
    return "{" + body + "}"


class BucketHistogram:
    """A fixed-bucket distribution (cumulative at render time only).

    Internally each finite bucket holds its own count (cheaper to
    update); :meth:`cumulative` produces the ``le``-cumulative view the
    exposition format requires, with the implicit ``+Inf`` bucket equal
    to the total observation count.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets=DEFAULT_LATENCY_BUCKETS) -> None:
        buckets = tuple(float(b) for b in buckets)
        if not buckets:
            raise ValueError("histogram needs at least one finite bucket")
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError(
                f"histogram buckets must be strictly increasing, "
                f"got {buckets}")
        if buckets[-1] == math.inf:
            raise ValueError("+Inf bucket is implicit; pass finite bounds")
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return

    def cumulative(self) -> "list[tuple[float, int]]":
        """``(le, cumulative count)`` pairs, ``+Inf`` last."""
        pairs = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            pairs.append((bound, running))
        pairs.append((math.inf, self.count))
        return pairs

    def merge(self, other: "BucketHistogram") -> None:
        if other.buckets != self.buckets:
            raise ValueError("cannot merge histograms with different buckets")
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.sum += other.sum
        self.count += other.count

    def copy(self) -> "BucketHistogram":
        """An independent snapshot (scrapes render copies, not the live
        cell, so a concurrent observe cannot tear sum/count/buckets)."""
        clone = BucketHistogram(self.buckets)
        clone.counts = list(self.counts)
        clone.sum = self.sum
        clone.count = self.count
        return clone


class MetricsExposition:
    """A buildable set of metric families rendered as exposition text.

    Families are keyed by metric name; within a family, samples are
    keyed by their (sorted) label items.  Counters accumulate, gauges
    overwrite, histogram cells are :class:`BucketHistogram` instances
    created on first touch.
    """

    def __init__(self) -> None:
        #: name -> {"kind", "help", "buckets", "samples": {labels: value}}
        self._families: dict[str, dict] = {}

    def _family(self, name: str, kind: str, help_text: str,
                buckets=None) -> dict:
        _check_name(name)
        family = self._families.get(name)
        if family is None:
            family = {"kind": kind, "help": help_text,
                      "buckets": buckets, "samples": {}}
            self._families[name] = family
        elif family["kind"] != kind:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{family['kind']}, not {kind}")
        return family

    def counter(self, name: str, help_text: str, value: float = 0,
                labels: "dict | None" = None) -> None:
        """Accumulate into a counter (name must end in ``_total``)."""
        if not name.endswith("_total"):
            raise ValueError(
                f"counter names end in '_total' by convention, got {name!r}")
        family = self._family(name, "counter", help_text)
        key = _check_labels(labels)
        family["samples"][key] = family["samples"].get(key, 0) + value

    def gauge(self, name: str, help_text: str, value: float,
              labels: "dict | None" = None) -> None:
        family = self._family(name, "gauge", help_text)
        family["samples"][_check_labels(labels)] = value

    def observe(self, name: str, help_text: str, value: float,
                labels: "dict | None" = None,
                buckets=DEFAULT_LATENCY_BUCKETS) -> None:
        """Observe one value into a histogram cell."""
        family = self._family(name, "histogram", help_text,
                              buckets=tuple(float(b) for b in buckets))
        key = _check_labels(labels)
        cell = family["samples"].get(key)
        if cell is None:
            cell = family["samples"][key] = BucketHistogram(family["buckets"])
        cell.observe(value)

    def attach_histogram(self, name: str, help_text: str,
                         histogram: BucketHistogram,
                         labels: "dict | None" = None) -> None:
        """Adopt an externally maintained :class:`BucketHistogram` cell."""
        family = self._family(name, "histogram", help_text,
                              buckets=histogram.buckets)
        key = _check_labels(labels)
        existing = family["samples"].get(key)
        if existing is None:
            family["samples"][key] = histogram
        else:
            existing.merge(histogram)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """The full exposition text (families sorted by name)."""
        lines = []
        for name in sorted(self._families):
            family = self._families[name]
            help_text = family["help"].replace("\\", "\\\\").replace(
                "\n", "\\n")
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {family['kind']}")
            samples = family["samples"]
            for key in sorted(samples):
                value = samples[key]
                if family["kind"] == "histogram":
                    for bound, count in value.cumulative():
                        le = ("le", _format_number(bound))
                        lines.append(
                            f"{name}_bucket{_render_labels(key, (le,))} "
                            f"{count}")
                    lines.append(
                        f"{name}_sum{_render_labels(key)} "
                        f"{_format_number(value.sum)}")
                    lines.append(
                        f"{name}_count{_render_labels(key)} {value.count}")
                else:
                    lines.append(
                        f"{name}{_render_labels(key)} "
                        f"{_format_number(value)}")
        return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# parsing (tests + CI validation)
# ---------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)(?:\s+\d+)?$"
)

_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*'
    r'"(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)'
)


def _parse_labels(text: str) -> dict:
    labels = {}
    pos = 0
    while pos < len(text):
        match = _LABEL_PAIR_RE.match(text, pos)
        if match is None:
            raise ValueError(f"malformed label block {text!r}")
        raw = match.group("value")
        labels[match.group("key")] = (
            raw.replace("\\n", "\n").replace('\\"', '"')
            .replace("\\\\", "\\"))
        pos = match.end()
    return labels


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


def parse_exposition(text: str) -> dict:
    """Parse exposition text into ``{family: {kind, help, samples}}``.

    ``samples`` is a list of ``(sample_name, labels_dict, value)``.
    Strict by design — this is the validator behind the CI smoke job —
    so it raises ``ValueError`` on: samples without a ``# TYPE``
    declaration, unknown sample suffixes for the declared kind,
    histograms missing their ``+Inf`` bucket, non-monotonic cumulative
    bucket counts, or ``_count`` disagreeing with the ``+Inf`` bucket.
    """
    families: dict[str, dict] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP "):].split(" ", 1)
            name = _check_name(parts[0])
            families.setdefault(
                name, {"kind": None, "help": None, "samples": []}
            )["help"] = parts[1] if len(parts) > 1 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE "):].split()
            if len(parts) != 2 or parts[1] not in _KINDS:
                raise ValueError(f"line {lineno}: malformed TYPE {line!r}")
            families.setdefault(
                parts[0], {"kind": None, "help": None, "samples": []}
            )["kind"] = parts[1]
            continue
        if line.startswith("#"):
            continue  # plain comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        sample_name = match.group("name")
        labels = _parse_labels(match.group("labels") or "")
        value = _parse_value(match.group("value"))
        family = _owning_family(families, sample_name)
        if family is None:
            raise ValueError(
                f"line {lineno}: sample {sample_name!r} has no "
                f"# TYPE declaration")
        families[family]["samples"].append((sample_name, labels, value))
    for name, family in families.items():
        if family["kind"] == "histogram":
            _check_histogram(name, family["samples"])
    return families


def _owning_family(families: dict, sample_name: str) -> "str | None":
    if sample_name in families and families[sample_name]["kind"] is not None:
        return sample_name
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if families.get(base, {}).get("kind") == "histogram":
                return base
    return None


def _check_histogram(name: str, samples: list) -> None:
    cells: dict[tuple, dict] = {}
    for sample_name, labels, value in samples:
        key = tuple(sorted(
            (k, v) for k, v in labels.items() if k != "le"))
        cell = cells.setdefault(key, {"buckets": [], "sum": None,
                                      "count": None})
        if sample_name.endswith("_bucket"):
            if "le" not in labels:
                raise ValueError(
                    f"{name}: bucket sample without 'le' label")
            cell["buckets"].append((_parse_value(labels["le"]), value))
        elif sample_name.endswith("_sum"):
            cell["sum"] = value
        elif sample_name.endswith("_count"):
            cell["count"] = value
    for key, cell in cells.items():
        buckets = sorted(cell["buckets"])
        if not buckets or buckets[-1][0] != math.inf:
            raise ValueError(f"{name}{dict(key)}: missing +Inf bucket")
        counts = [count for _, count in buckets]
        if counts != sorted(counts):
            raise ValueError(
                f"{name}{dict(key)}: bucket counts not cumulative")
        if cell["count"] is None or cell["sum"] is None:
            raise ValueError(f"{name}{dict(key)}: missing _sum or _count")
        if cell["count"] != buckets[-1][1]:
            raise ValueError(
                f"{name}{dict(key)}: _count {cell['count']} != +Inf "
                f"bucket {buckets[-1][1]}")


# ---------------------------------------------------------------------------
# offline rendering: a completed run's trace records -> exposition
# ---------------------------------------------------------------------------

def _sanitize(name: str) -> str:
    return re.sub(r"[^a-zA-Z0-9_]", "_", name)


def exposition_from_records(records) -> MetricsExposition:
    """Build the exposition of a completed run's trace records.

    The offline twin of the service's live ``/metrics``: given the
    per-cluster records a run appended to ``REPRO_TRACE`` (or the
    ``trace_records`` of a merged snapshot), it renders cluster counts,
    per-phase latency histograms, counter totals, and one
    ``repro_run_info`` series per distinct ``run_id`` seen — which is
    how a scrape-less batch run still lands in the same dashboards.
    """
    expo = MetricsExposition()
    run_ids = set()
    for record in records:
        if record.get("run_id"):
            run_ids.add(record["run_id"])
        if record.get("type") != "cluster":
            continue
        labels = {"workload": str(record.get("workload")),
                  "method": str(record.get("method"))}
        expo.counter("repro_clusters_total",
                     "Sampled clusters simulated.", 1, labels)
        for key, value in record.items():
            if key.endswith("_seconds") and key != "wall_seconds":
                expo.observe(
                    "repro_cluster_phase_seconds",
                    "Per-cluster wall time by pipeline phase.",
                    value, {"phase": key[: -len("_seconds")]})
        if "wall_seconds" in record:
            expo.observe("repro_cluster_wall_seconds",
                         "Per-cluster total wall time.",
                         record["wall_seconds"])
        for counter, amount in (record.get("counters") or {}).items():
            expo.counter(f"repro_{_sanitize(counter)}_total",
                         f"Engine counter {counter}.", amount)
        for field in ("blocks_reconstructed", "pht_entries_reconstructed"):
            if record.get(field):
                expo.counter(f"repro_{field}_total",
                             "Reverse-reconstruction volume.",
                             record[field])
    for run_id in sorted(run_ids):
        expo.gauge("repro_run_info",
                   "One series per correlated run seen in the records.",
                   1, {"run_id": run_id})
    return expo
