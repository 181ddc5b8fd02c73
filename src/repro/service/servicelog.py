"""The service's access and job records, appended to the ``REPRO_TRACE``
record file.

The service's HTTP handler used to silence ``log_message`` entirely —
good for test noise, terrible for operating a deployment.  This module
is the replacement: two more record types in the one record file the
service's jobs already write their run records to, appended by
:func:`~repro.telemetry.append_trace` (one ``write`` on an ``O_APPEND``
descriptor, repeated for what a short write left), so handler threads,
the worker thread and the jobs interleave whole lines, never fragments:

- ``access`` — one per HTTP request: method, normalized route, status,
  duration, tenant and ``run_id`` when the route touched a job;
- ``job`` — one per job state transition (queued/running/done/failed):
  tenant, kind, ``run_id``, queue-wait and execution latency.

Their ``ts`` is wall-clock epoch seconds, not a run-timeline offset.
Only a ``REPRO_TRACE`` path turns them on (``path=None`` otherwise): a
service with ``REPRO_TRACE`` off or ``1`` makes zero writes.  A failing
path warns once on stderr and goes quiet — the records are an
observation channel and must never take a request down.
"""

from __future__ import annotations

import os
import time

from ..telemetry.trace import RECORD_ACCESS, RECORD_JOB, append_trace


class ServiceLog:
    """Appends the service's records to one path (or nowhere)."""

    def __init__(self, path: str | None) -> None:
        self.path = path

    @property
    def enabled(self) -> bool:
        return self.path is not None

    def write(self, kind: str, /, **fields) -> None:
        """Append one ``{"type": kind, "ts": ..., "pid": ..., **fields}``
        record; drops None-valued fields so lines stay grep-friendly.
        `kind` is positional-only so a field named ``kind`` (the job
        kind) can ride ``fields``."""
        if self.path is None:
            return
        record = {"type": kind, "ts": time.time(), "pid": os.getpid()}
        record.update(
            (key, value) for key, value in fields.items()
            if value is not None
        )
        append_trace((record,), self.path, label="service records")

    def access(self, *, method: str, route: str, status: int,
               duration_seconds: float, tenant: str | None = None,
               run_id: str | None = None,
               job_id: str | None = None) -> None:
        """One HTTP request, after the response was (or failed to be)
        written."""
        self.write(RECORD_ACCESS, method=method, route=route,
                   status=status,
                   duration_ms=round(duration_seconds * 1000.0, 3),
                   tenant=tenant, run_id=run_id, job_id=job_id)

    def job(self, *, state: str, job_id: str, tenant: str,
            kind: str, run_id: str | None = None,
            queue_wait_seconds: float | None = None,
            run_seconds: float | None = None,
            error: str | None = None,
            cached: bool | None = None) -> None:
        """One job lifecycle transition from the worker thread."""
        self.write(RECORD_JOB, state=state, job_id=job_id, tenant=tenant,
                   kind=kind, run_id=run_id,
                   queue_wait_seconds=queue_wait_seconds,
                   run_seconds=run_seconds, error=error, cached=cached)
