"""Hierarchical span tracing with cross-process propagation.

A *span* is one named, timed region of work.  Spans nest — the recorder
keeps an open-span stack per session, so ``with telemetry.span("run"):``
containing ``with telemetry.span("cluster 0"):`` yields a tree:

    run -> (matrix cell ->) phase_a / phase_b -> cluster i
        -> cold_skip / reconstruct / hot_sim / audit

Each completed span becomes one plain dict record (JSONL-friendly, the
same discipline as the cluster trace) carrying:

- identity: ``id`` (``"<pid>:<seq>"``, unique across the processes of a
  run), ``parent`` (another span id or None for roots), ``name``,
  ``cat`` (coarse category for trace viewers), ``args`` (small facts —
  workload, method, cluster index);
- lane: ``pid`` / ``tid``, so every worker process renders on its own
  track in Perfetto;
- time: ``ts`` / ``dur`` in nanoseconds.  Durations come from the
  monotonic clock (``time.perf_counter_ns``); timestamps are that
  monotonic reading *anchored* at the recorder's wall-clock origin and
  re-based onto the run's clock origin, which is how spans recorded in
  different processes land on one reconciled timeline (see
  :class:`SpanContext`).

**Cross-process propagation.**  A parent session exports its open-span
context (:meth:`SpanRecorder.context`); the parallel engine plants it in
the environment (:data:`SPAN_PARENT_ENV_VAR`) before fanning out, so
worker sessions created via :func:`recorder_from_env` parent their root
spans directly into the run's trace and stamp timestamps relative to the
run's clock origin.  At fold time the parent *adopts* the workers' span
records (:meth:`SpanRecorder.adopt`) — no id rewriting, no offset
arithmetic left to do.

**Off by default.**  Without :data:`SPANS_ENV_VAR` every call lands on
the shared :data:`NULL_SPANS` recorder: one attribute load and a no-op
context manager per bracket, preserving the telemetry layer's <5%
disabled-overhead budget (measured far below in
``benchmarks/test_span_overhead.py``).
"""

from __future__ import annotations

import os
import sys
import threading
import time

from .runid import run_id_from_env

#: Environment variable enabling span recording.  ``1``/``on`` collects
#: in memory only (span records ride telemetry snapshots); any other
#: non-off value is a JSONL file path the session appends its spans to
#: at flush time (same whole-batch append discipline as ``REPRO_TRACE``).
SPANS_ENV_VAR = "REPRO_SPANS"

#: Environment variable carrying a parent span context across process
#: boundaries: ``"<parent span id>@<run clock origin ns>"``.  Set by the
#: parallel engine around worker fan-out; read by
#: :func:`recorder_from_env` in the workers.
SPAN_PARENT_ENV_VAR = "REPRO_SPAN_PARENT"

#: Record type of one completed span.
RECORD_SPAN = "span"

#: Record type of one sampled counter value (a Perfetto counter track
#: point: skip-log stored records, blocks reconstructed, RSS...).
RECORD_COUNTER = "counter"

_OFF_VALUES = ("", "0", "off", "false", "no")
_MEMORY_VALUES = ("1", "on", "true", "yes")


def spans_enabled() -> bool:
    """True when ``REPRO_SPANS`` asks for span recording."""
    flag = os.environ.get(SPANS_ENV_VAR, "").strip()
    return flag.lower() not in _OFF_VALUES


def span_path_from_env() -> str | None:
    """The spans JSONL path, or None for off / in-memory-only modes."""
    flag = os.environ.get(SPANS_ENV_VAR, "").strip()
    if flag.lower() in _OFF_VALUES or flag.lower() in _MEMORY_VALUES:
        return None
    return flag


class SpanContext:
    """Picklable hand-off of an open span across a process boundary.

    `parent_id` re-parents the receiving recorder's root spans into the
    sender's tree; `origin_wall_ns` is the run's clock origin — every
    recorder stamps ``ts`` relative to it, so spans from any process of
    the run share one timeline without a post-hoc offset pass.
    """

    __slots__ = ("parent_id", "origin_wall_ns")

    def __init__(self, parent_id: str | None, origin_wall_ns: int) -> None:
        self.parent_id = parent_id
        self.origin_wall_ns = origin_wall_ns

    def encode(self) -> str:
        return f"{self.parent_id or ''}@{self.origin_wall_ns}"

    @classmethod
    def decode(cls, text: str) -> "SpanContext | None":
        text = text.strip()
        if not text or "@" not in text:
            return None
        parent, _, origin = text.rpartition("@")
        try:
            return cls(parent_id=parent or None,
                       origin_wall_ns=int(origin))
        except ValueError:
            return None

    def __eq__(self, other) -> bool:
        return (isinstance(other, SpanContext)
                and self.parent_id == other.parent_id
                and self.origin_wall_ns == other.origin_wall_ns)

    def __getstate__(self):
        return (self.parent_id, self.origin_wall_ns)

    def __setstate__(self, state):
        self.parent_id, self.origin_wall_ns = state


class _OpenSpan:
    """Context manager closing one recorder stack frame."""

    __slots__ = ("_recorder",)

    def __init__(self, recorder: "SpanRecorder") -> None:
        self._recorder = recorder

    def __enter__(self) -> "_OpenSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._recorder.close(time.perf_counter_ns())


class _NullSpan:
    """Shared no-op span context manager (no clock reads)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()

#: Per-process recorder counter, part of every span id.  Ids must stay
#: unique across *recorders*, not just processes: the in-process
#: fallback of ``map_tasks`` runs shard sessions in the parent's pid,
#: and their spans are adopted into the parent recorder afterwards.
_recorder_count = 0


def _next_recorder_index() -> int:
    global _recorder_count
    _recorder_count += 1
    return _recorder_count


class SpanRecorder:
    """One enabled span-recording session (typically: one process)."""

    enabled = True

    def __init__(self, context: SpanContext | None = None,
                 path: str | None = None) -> None:
        self.pid = os.getpid()
        self.tid = threading.get_native_id()
        self.path = path
        #: Ambient correlation id at session start (None: not stamped).
        #: Worker recorders inherit it through the environment exactly
        #: like the span parent context, so spans from every process of
        #: a run grep under one id.
        self.run_id = run_id_from_env()
        self._instance = _next_recorder_index()
        self._seq = 0
        self._flushed = 0
        self._origin_perf_ns = time.perf_counter_ns()
        origin_wall_ns = time.time_ns()
        #: The run's clock origin: inherited from the propagated context
        #: when this recorder lives in a worker, else this recorder's
        #: own wall clock at creation.
        self.origin_wall_ns = (context.origin_wall_ns
                               if context is not None else origin_wall_ns)
        #: Offset mapping this process's monotonic readings onto the
        #: run timeline: ts = (perf - origin_perf) + wall_offset.
        self._wall_offset_ns = origin_wall_ns - self.origin_wall_ns
        self._root_parent = context.parent_id if context is not None else None
        #: Open-span stack: (id, name, cat, args, start_perf_ns).
        self._stack: list[tuple] = []
        #: Completed span + counter records, in completion order.
        self.records: list[dict] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str, cat: str = "repro", **args) -> _OpenSpan:
        """Open a span; close it by exiting the returned context."""
        self.open(name, cat, time.perf_counter_ns(), args or None)
        return _OpenSpan(self)

    def open(self, name: str, cat: str, start_perf_ns: int,
             args: dict | None = None) -> None:
        """Push a span that began at monotonic reading `start_perf_ns`.

        :meth:`close` pops it; callers that time the region themselves
        (phase timers) pass their own clock readings to both.
        """
        self._seq += 1
        span_id = f"{self.pid}:{self._instance}:{self._seq}"
        self._stack.append((span_id, name, cat, args, start_perf_ns))

    def close(self, end_perf_ns: int) -> None:
        """Pop the innermost open span, ending it at `end_perf_ns`."""
        span_id, name, cat, args, start_perf_ns = self._stack.pop()
        parent = (self._stack[-1][0] if self._stack else self._root_parent)
        record = {
            "type": RECORD_SPAN,
            "id": span_id,
            "parent": parent,
            "name": name,
            "cat": cat,
            "pid": self.pid,
            "tid": self.tid,
            "ts": (start_perf_ns - self._origin_perf_ns
                   + self._wall_offset_ns),
            "dur": end_perf_ns - start_perf_ns,
        }
        if self.run_id is not None:
            record["run_id"] = self.run_id
        if args:
            record["args"] = args
        self.records.append(record)

    def counter(self, name: str, value) -> None:
        """Record one counter-track sample at the current timestamp."""
        record = {
            "type": RECORD_COUNTER,
            "name": name,
            "value": value,
            "pid": self.pid,
            "tid": self.tid,
            "ts": (time.perf_counter_ns() - self._origin_perf_ns
                   + self._wall_offset_ns),
        }
        if self.run_id is not None:
            record["run_id"] = self.run_id
        self.records.append(record)

    # -- propagation ---------------------------------------------------------

    @property
    def current_span_id(self) -> str | None:
        return self._stack[-1][0] if self._stack else self._root_parent

    def context(self) -> SpanContext:
        """The propagation context for work forked under the open span."""
        return SpanContext(parent_id=self.current_span_id,
                           origin_wall_ns=self.origin_wall_ns)

    def adopt(self, records) -> int:
        """Fold completed records from another recorder into this one.

        Worker spans arrive with their parent ids and run-relative
        timestamps already set (the propagated context did the
        reconciliation at record time), so adoption is a plain append;
        returns the number of records adopted.
        """
        records = list(records)
        self.records.extend(records)
        return len(records)

    # -- output --------------------------------------------------------------

    def export(self) -> list[dict]:
        """Copies of all completed records (open spans are not exported)."""
        return [dict(record) for record in self.records]

    def flush(self) -> int:
        """Append not-yet-written records to :attr:`path` (one batch).

        A no-op without a path; each record is written at most once.
        """
        if self.path is None:
            return 0
        from .trace import append_trace

        pending = self.records[self._flushed:]
        written = append_trace(pending, self.path)
        self._flushed += written
        return written


class NullSpanRecorder:
    """The disabled backend: the full recorder API as no-ops."""

    enabled = False
    path = None
    records: list = []
    current_span_id = None
    origin_wall_ns = 0

    __slots__ = ()

    def span(self, name: str, cat: str = "repro", **args) -> _NullSpan:
        return _NULL_SPAN

    def counter(self, name: str, value) -> None:
        pass

    def context(self) -> None:
        return None

    def adopt(self, records) -> int:
        return 0

    def export(self) -> list:
        return []

    def flush(self) -> int:
        return 0


NULL_SPANS = NullSpanRecorder()


def recorder_from_env() -> SpanRecorder | NullSpanRecorder:
    """Resolve the span backend from the environment.

    ``REPRO_SPANS`` off: the shared null recorder.  Otherwise a live
    recorder whose parent context — if :data:`SPAN_PARENT_ENV_VAR` is
    planted (worker processes) — re-parents roots and re-bases
    timestamps onto the run's clock origin.
    """
    if not spans_enabled():
        return NULL_SPANS
    context = SpanContext.decode(
        os.environ.get(SPAN_PARENT_ENV_VAR, "")
    )
    return SpanRecorder(context=context, path=span_path_from_env())


# ---------------------------------------------------------------------------
# span-tree structure helpers (tests, report, export)
# ---------------------------------------------------------------------------


def span_records(records) -> list[dict]:
    """Only the span records of a mixed record stream."""
    return [r for r in records if r.get("type") == RECORD_SPAN]


def build_span_tree(records) -> list[dict]:
    """Nest span records into root trees (``children`` lists, ts-sorted).

    Records whose parent id is unknown (e.g. worker spans exported
    without their parent's process) become roots.  Returns the list of
    root nodes; every node is a copy of its record plus ``children``.
    """
    nodes = {r["id"]: {**r, "children": []} for r in span_records(records)}
    roots = []
    for node in nodes.values():
        parent = nodes.get(node.get("parent"))
        if parent is None:
            roots.append(node)
        else:
            parent["children"].append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda child: (child["ts"], child["id"]))
    roots.sort(key=lambda node: (node["ts"], node["id"]))
    return roots


def span_tree_shape(records, collapse: tuple = ()) -> tuple:
    """Canonical timing-free shape of a span forest.

    The shape is a nested tuple of ``(name, (child shapes...))`` with
    siblings sorted canonically (by name, then recursively by shape), so
    two runs with identical structure — names, parentage, counts — map
    to equal shapes no matter how their timings or worker pids differ.

    `collapse` names *grouping* spans to splice out: their children are
    lifted into the grandparent, and same-named siblings merge their
    child lists.  Collapsing ``("phase_a", "phase_b")`` erases the
    two-phase pipeline's scheduling structure, so a sharded run's shape
    can be compared against the serial walk's (each ``cluster i`` node
    then owns its cold_skip *and* reconstruct/hot_sim children, exactly
    as in serial).
    """
    def shape_of(node) -> tuple:
        children = []
        for child in node["children"]:
            if child["name"] in collapse:
                children.extend(child["children"])
            else:
                children.append(child)
        if collapse:
            merged: dict[str, dict] = {}
            ordered = []
            for child in children:
                existing = merged.get(child["name"])
                if existing is None:
                    clone = {**child, "children": list(child["children"])}
                    merged[child["name"]] = clone
                    ordered.append(clone)
                else:
                    existing["children"] = (list(existing["children"])
                                            + list(child["children"]))
            children = ordered
        return (node["name"],
                tuple(sorted(shape_of(child) for child in children)))

    roots = build_span_tree(records)
    if collapse:
        lifted = []
        for root in roots:
            if root["name"] in collapse:
                lifted.extend(root["children"])
            else:
                lifted.append(root)
        roots = lifted
    return tuple(sorted(shape_of(root) for root in roots))


def read_spans(path: str) -> list[dict]:
    """Parse a spans JSONL file (tolerant of a truncated final line)."""
    from .trace import read_trace

    return read_trace(path)


def rss_high_water_kb() -> int | None:
    """The process's peak resident set size in KiB, when knowable."""
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return usage // 1024 if sys.platform == "darwin" else usage
