"""Structured JSON service log (``REPRO_SERVICE_LOG`` JSONL).

The service's HTTP handler used to silence ``log_message`` entirely —
good for test noise, terrible for operating a deployment.  This module
is the replacement: one JSON object per line, appended by the
``REPRO_TRACE`` record file's own :func:`~repro.telemetry.append_trace`
(one ``write`` on an ``O_APPEND`` descriptor, repeated for what a short
write left), so handler threads and the worker thread interleave whole
lines, never fragments.

Two line kinds share the file:

- ``access`` — one per HTTP request: method, normalized route, status,
  duration, tenant and ``run_id`` when the route touched a job;
- ``job`` — one per job state transition (queued/running/done/failed):
  tenant, kind, ``run_id``, queue-wait and execution latency.

Off by default (``path=None``): a logging-off service makes zero writes
and stays byte-identical to previous releases.  A failing path warns
once on stderr ("cannot append service log") and goes quiet — the log
is an observation channel and must never take a request down.
"""

from __future__ import annotations

import os
import time

from ..telemetry.trace import append_trace

#: Environment variable naming the service-log JSONL file.
SERVICE_LOG_ENV_VAR = "REPRO_SERVICE_LOG"


class ServiceLog:
    """Append-only structured log bound to one path (or disabled)."""

    def __init__(self, path: str | None) -> None:
        self.path = path

    @property
    def enabled(self) -> bool:
        return self.path is not None

    def write(self, kind: str, /, **fields) -> None:
        """Append one ``{"log": kind, "ts": ..., "pid": ..., **fields}``
        line; drops None-valued fields so lines stay grep-friendly.
        `kind` is positional-only so a field named ``kind`` (the job
        kind) can ride ``fields``."""
        if self.path is None:
            return
        record = {"log": kind, "ts": time.time(), "pid": os.getpid()}
        record.update(
            (key, value) for key, value in fields.items()
            if value is not None
        )
        append_trace((record,), self.path, label="service log")

    def access(self, *, method: str, route: str, status: int,
               duration_seconds: float, tenant: str | None = None,
               run_id: str | None = None,
               job_id: str | None = None) -> None:
        """One HTTP request, after the response was (or failed to be)
        written."""
        self.write("access", method=method, route=route, status=status,
                   duration_ms=round(duration_seconds * 1000.0, 3),
                   tenant=tenant, run_id=run_id, job_id=job_id)

    def job(self, *, state: str, job_id: str, tenant: str,
            kind: str, run_id: str | None = None,
            queue_wait_seconds: float | None = None,
            run_seconds: float | None = None,
            error: str | None = None,
            cached: bool | None = None) -> None:
        """One job lifecycle transition from the worker thread."""
        self.write("job", state=state, job_id=job_id, tenant=tenant,
                   kind=kind, run_id=run_id,
                   queue_wait_seconds=queue_wait_seconds,
                   run_seconds=run_seconds, error=error, cached=cached)


#: Shared disabled instance (the null-object default).
NULL_SERVICE_LOG = ServiceLog(None)
