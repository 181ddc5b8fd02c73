"""Job bookkeeping for the simulation service.

A :class:`JobStore` is the service's single source of truth: a FIFO
queue of :class:`JobRecord` entries feeding one worker thread, plus
per-tenant quota enforcement so a chatty client cannot starve the rest
of the queue.  It is deliberately free of HTTP concerns — the server
module translates store outcomes into status codes — and free of
execution concerns: the store never imports the simulator.

Thread-safety: every public method takes the store lock; the worker
thread blocks on the internal queue and a result reader blocks on the
store's completion condition (:meth:`JobStore.wait`), so submission,
execution and result delivery never poll.
"""

from __future__ import annotations

import heapq
import itertools
import queue
import threading
import time
from dataclasses import dataclass, field

#: Lifecycle: queued -> running -> done | failed.
JOB_STATES = ("queued", "running", "done", "failed")

#: Pending = holding queue capacity (queued or running).
_PENDING_STATES = frozenset({"queued", "running"})

#: The most job records a store keeps.  A submit past it evicts the
#: oldest finished record; only this many *pending* jobs refuse one.
MAX_JOBS = 10_000


class QuotaExceeded(Exception):
    """A tenant, or the whole store, has too many pending jobs (the HTTP
    layer maps it to 429)."""

    def __init__(self, tenant: str, limit: int,
                 message: "str | None" = None) -> None:
        super().__init__(message or (
            f"tenant {tenant!r} has {limit} pending job(s), the maximum; "
            f"wait for one to finish before submitting more"))
        self.tenant = tenant
        self.limit = limit


@dataclass
class JobRecord:
    """One submitted request and everything learned about it since."""

    job_id: str
    tenant: str
    request: object  # repro.api.RunRequest
    #: Correlation id minted at submission; stamped on every telemetry
    #: record the job produces and on the service's structured log, so
    #: one grep joins the HTTP request to its worker-process artifacts.
    run_id: "str | None" = None
    state: str = "queued"
    error: "str | None" = None
    result: object = None  # repro.api.RunResult once done
    submitted_at: float = field(default_factory=time.time)
    started_at: "float | None" = None
    finished_at: "float | None" = None
    #: Monotonic twins of the wall-clock timestamps above: latency
    #: measurements (queue wait, execution) must not jump with NTP.
    submitted_mono: float = field(default_factory=time.monotonic)
    started_mono: "float | None" = None
    finished_mono: "float | None" = None

    def queue_wait_seconds(self) -> "float | None":
        """Submission-to-start latency (None while still queued)."""
        if self.started_mono is None:
            return None
        return self.started_mono - self.submitted_mono

    def run_seconds(self) -> "float | None":
        """Start-to-finish latency (None until the job finishes)."""
        if self.started_mono is None or self.finished_mono is None:
            return None
        return self.finished_mono - self.started_mono

    def status_payload(self) -> dict:
        """The JSON body for ``GET /jobs/<id>``."""
        payload = {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "state": self.state,
            "request": self.request.to_payload(),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.run_id is not None:
            payload["run_id"] = self.run_id
        if self.error is not None:
            payload["error"] = self.error
        if self.result is not None:
            payload["cached"] = self.result.cached
            payload["wall_seconds"] = self.result.wall_seconds
        return payload


class JobStore:
    """Queue, registry, and quota ledger for service jobs."""

    def __init__(self, *, max_pending_per_tenant: int = 4) -> None:
        if max_pending_per_tenant < 1:
            raise ValueError(
                f"max_pending_per_tenant must be >= 1, "
                f"got {max_pending_per_tenant}")
        self.max_pending_per_tenant = max_pending_per_tenant
        self._lock = threading.Lock()
        #: Notified whenever a job finishes or holding stops; readers
        #: blocked in :meth:`wait` re-check their job on each wake.
        self._changed = threading.Condition(self._lock)
        #: False while the service shuts down: :meth:`wait` then answers
        #: at once instead of holding a request.
        self._holding = True
        self._jobs: "dict[str, JobRecord]" = {}
        self._queue: "queue.Queue[str]" = queue.Queue()
        self._ids = itertools.count(1)
        #: Pending (queued or running) jobs per tenant; a tenant leaves
        #: the dict when its last pending job finishes.
        self._pending: "dict[str, int]" = {}
        #: Records per state, kept beside the records so the gauges
        #: read one entry instead of scanning the store.
        self._states: "dict[str, int]" = dict.fromkeys(JOB_STATES, 0)
        #: ``(sequence, job_id)`` of every finished record, a min-heap:
        #: the top is the oldest submission.
        self._finished: "list[tuple[int, str]]" = []

    # -- submission --------------------------------------------------------

    def submit(self, tenant: str, request,
               run_id: "str | None" = None) -> JobRecord:
        """Enqueue a request, enforcing the tenant's pending-job quota."""
        with self._lock:
            pending = self._pending.get(tenant, 0)
            if pending >= self.max_pending_per_tenant:
                raise QuotaExceeded(tenant, self.max_pending_per_tenant)
            if len(self._jobs) >= MAX_JOBS:
                if not self._finished:
                    # A backstop against unbounded memory; tenants
                    # hitting it read the same retryable signal as a
                    # quota.
                    raise QuotaExceeded(
                        tenant, MAX_JOBS,
                        f"the job store holds {MAX_JOBS} pending jobs, "
                        f"its limit; wait for one to finish before "
                        f"submitting more")
                evicted = self._jobs.pop(heapq.heappop(self._finished)[1])
                self._states[evicted.state] -= 1
            sequence = next(self._ids)
            job_id = f"job-{sequence:06d}"
            record = JobRecord(job_id=job_id, tenant=tenant,
                               request=request, run_id=run_id)
            self._jobs[job_id] = record
            self._states["queued"] += 1
            self._pending[tenant] = pending + 1
        self._queue.put(job_id)
        return record

    # -- worker side -------------------------------------------------------

    def next_job(self, timeout: "float | None" = None) -> "JobRecord | None":
        """Block for the next queued job; None on timeout."""
        try:
            job_id = self._queue.get(timeout=timeout)
        except queue.Empty:
            return None
        with self._lock:
            return self._jobs.get(job_id)

    def mark_running(self, job_id: str) -> None:
        with self._lock:
            job = self._jobs[job_id]
            self._move(job, "running")
            job.started_at = time.time()
            job.started_mono = time.monotonic()

    def mark_done(self, job_id: str, result) -> None:
        with self._lock:
            job = self._jobs[job_id]
            job.result = result
            self._finish(job, "done")

    def mark_failed(self, job_id: str, error: str) -> None:
        with self._lock:
            job = self._jobs[job_id]
            job.error = error
            self._finish(job, "failed")

    def _move(self, job: JobRecord, state: str) -> None:
        """Set a job's state, keeping the per-state counts.  The caller
        holds the lock."""
        self._states[job.state] -= 1
        self._states[state] += 1
        job.state = state

    def _finish(self, job: JobRecord, state: str) -> None:
        """Move a job to `state` (done or failed), releasing its quota
        slot if it held one, and wake the readers waiting on it.  The
        caller holds the lock and has set the job's result or error
        already: readers see the state without the lock, so the outcome
        is published before the state that announces it."""
        job.finished_at = time.time()
        job.finished_mono = time.monotonic()
        if job.state in _PENDING_STATES:
            left = self._pending[job.tenant] - 1
            if left:
                self._pending[job.tenant] = left
            else:
                del self._pending[job.tenant]
            heapq.heappush(self._finished,
                           (int(job.job_id.rpartition("-")[2]), job.job_id))
        self._move(job, state)
        self._changed.notify_all()

    # -- result delivery ---------------------------------------------------

    def wait(self, job_id: str, timeout: float) -> "JobRecord | None":
        """The job's record once it is done or failed, or after `timeout`
        seconds, whichever comes first; None for an unknown id.

        Returns at once while the store is not holding (see
        :meth:`set_holding`), so a shutdown never waits out a hold.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                self._changed.wait_for(
                    lambda: (job.state not in _PENDING_STATES
                             or not self._holding), timeout)
            return job

    def set_holding(self, holding: bool) -> None:
        """Let :meth:`wait` hold readers (True) or make every waiting
        and later reader return at once (False, for shutdown)."""
        with self._lock:
            self._holding = holding
            self._changed.notify_all()

    # -- inspection --------------------------------------------------------

    def get(self, job_id: str) -> "JobRecord | None":
        with self._lock:
            return self._jobs.get(job_id)

    def counts(self) -> dict:
        """Jobs per state (for ``GET /stats``)."""
        with self._lock:
            return dict(self._states)

    def queue_depth(self) -> int:
        """Jobs submitted but not yet started (the ``queued`` gauge)."""
        with self._lock:
            return self._states["queued"]

    def running_count(self) -> int:
        """Jobs currently executing (the ``inflight`` gauge)."""
        with self._lock:
            return self._states["running"]
