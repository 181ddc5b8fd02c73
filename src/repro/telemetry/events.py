"""Live progress event firehose (``REPRO_EVENTS`` JSONL).

Unlike trace/span records — buffered per session and written in one
batch at flush — events are appended **line-by-line as they happen**:
the whole point is that an external consumer (a dashboard, the future
distributed-executor service, or plain ``tail -f``) can watch a run
while it is still going.  Each append is a single ``write`` of one
complete line, so concurrent writer processes interleave whole events,
never fragments.

Event kinds currently emitted:

- ``run_start`` / ``run_end`` — one sampled run (workload × method);
- ``cluster`` — one cluster boundary (from ``Telemetry.end_cluster``),
  carrying cluster index, wall seconds, and phase seconds;
- ``cell`` — one matrix-cell completion (from the matrix progress hook),
  carrying completed/total counts so a consumer can compute rate/ETA.

Timestamps are wall-clock seconds (``time.time()``): the firehose is a
cross-run observation stream, not a reconciled intra-run timeline — the
span subsystem owns that.
"""

from __future__ import annotations

import json
import os
import sys
import time

from .runid import run_id_from_env

#: Environment variable naming the events JSONL file.  Setting it turns
#: on per-event append writes everywhere (sessions and matrix driver).
EVENTS_ENV_VAR = "REPRO_EVENTS"

#: Paths whose appends already failed once: the first failure earns a
#: stderr warning, later ones stay silent (a full disk would otherwise
#: turn every cluster boundary into a warning line).
_warned_paths: set[str] = set()

EVENT_RUN_START = "run_start"
EVENT_RUN_END = "run_end"
EVENT_CLUSTER = "cluster"
EVENT_CELL = "cell"


def events_path_from_env() -> str | None:
    """The ``REPRO_EVENTS`` path, or None when the firehose is off."""
    path = os.environ.get(EVENTS_ENV_VAR, "").strip()
    return path or None


def emit_event(path: str | None, event: str, **fields) -> None:
    """Append one event line immediately (no-op without a path).

    The line goes out as a single ``os.write`` on an ``O_APPEND``
    descriptor — one syscall, no userspace buffering — so a worker
    killed mid-run (the pool's ``close(cancel=True)``, SIGTERM) can never
    leave a partially written line for concurrent writers to interleave
    with.  A failed append (full disk, revoked path) never takes the
    run down — the firehose is an observation channel — but the *first*
    failure per path warns on stderr so a silently dead firehose is
    diagnosable.

    When a correlation id is ambient (:data:`~.runid.RUN_ID_ENV_VAR`),
    every line carries it as ``run_id``, joining the firehose to span
    records and the service log.
    """
    if path is None:
        return
    record = {"event": event, "t": time.time(), "pid": os.getpid()}
    run_id = run_id_from_env()
    if run_id is not None:
        record["run_id"] = run_id
    record.update(fields)
    line = json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"
    try:
        fd = os.open(path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
    except OSError as exc:
        if path not in _warned_paths:
            _warned_paths.add(path)
            print(
                f"repro: warning: cannot append events to {path!r} "
                f"({exc}); further failures for this path will be silent",
                file=sys.stderr,
            )


def read_events(path: str) -> list[dict]:
    """Parse an events JSONL file (tolerant of a truncated final line)."""
    from .trace import read_trace

    return read_trace(path)
