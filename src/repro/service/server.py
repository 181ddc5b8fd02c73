"""The long-running simulation service: a stdlib-only JSON HTTP API.

:class:`SimulationService` wires three pieces together:

- a :class:`~.jobs.JobStore` holding submitted jobs and per-tenant
  quotas,
- one worker thread draining the store and running each request
  through :func:`repro.api.execute_request` — the same path inline
  callers use, including the content-addressed result-cache
  read-through, under the service's validated
  :class:`~repro.harness.RunOptions`,
- a ``ThreadingHTTPServer`` translating HTTP into store operations.

Routes::

    POST /jobs          {"tenant": "...", "request": {RunRequest JSON}}
                        -> 202 {"job_id": ..., "run_id": ..., "state": "queued"}
                        -> 400 on malformed JSON / unknown fields
                        -> 429 when the tenant's pending quota is full
    GET  /jobs/<id>     -> 200 job status (state, run_id, timestamps, error)
    GET  /results/<id>  -> 200 RunResult JSON when done
                        -> 202 {"state": ...} while queued/running
                        -> 500 {"error": ...} when failed
    GET  /healthz       -> 200 {"status": "ok", "version", "uptime_seconds",
                           "queue_depth"}
    GET  /stats         -> 200 counters (submitted/completed/failed,
                           cache_hits, executed, per-state job counts)
    GET  /metrics       -> 200 Prometheus text exposition (counters,
                           queue-depth/in-flight gauges, queue-wait and
                           execution-latency histograms per job kind,
                           HTTP request counters and latency)

Observability: every submitted job gets a correlation ``run_id``
(:mod:`repro.telemetry.runid`) exported into its execution extent, so
its span/event/trace records across worker processes grep under one id;
a ``REPRO_TRACE`` path (``RunOptions.trace``) also takes the service's
own ``access`` and ``job`` records (:mod:`.servicelog`).  Recording
defaults off, in which case responses and results stay byte-identical
to inline execution.

Everything is stdlib (``http.server``, ``json``, ``threading``); the
service needs no extra dependencies to deploy.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..api import RunRequest, execute_request
from ..harness.options import RunOptions
from ..store.checkpoint import global_store_stats
from ..telemetry.expo import BucketHistogram, MetricsExposition
from ..telemetry.runid import mint_run_id
from ..telemetry.trace import trace_path
from .jobs import JobStore, QuotaExceeded
from .servicelog import ServiceLog

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

#: How long the worker blocks on the queue before re-checking shutdown.
_WORKER_POLL_SECONDS = 0.2

#: Known routes as they appear in metrics labels and access records;
#: per-job paths collapse to a template so label cardinality stays
#: bounded no matter how many jobs a deployment serves.
_ROUTES = frozenset({"/jobs", "/healthz", "/stats", "/metrics"})

_COUNTER_HELP = {
    "jobs_submitted": "Jobs accepted by POST /jobs.",
    "jobs_completed": "Jobs that finished successfully.",
    "jobs_failed": "Jobs that raised during execution.",
    "quota_rejections": "Submissions rejected by the tenant quota (429).",
    "cache_hits": "Completed jobs served from the result cache.",
    "executed": "Completed jobs that entered real execution.",
    "store_hits": "Checkpoint-store hits during job execution.",
    "store_misses": "Checkpoint-store misses during job execution.",
    "store_bytes_read": "Bytes read from the checkpoint store.",
    "store_bytes_written": "Bytes written to the checkpoint store.",
}


def normalize_route(path: str) -> str:
    """Collapse a request path to its bounded-cardinality route label."""
    path = path.split("?", 1)[0].rstrip("/") or "/"
    if path.startswith("/jobs/"):
        return "/jobs/{id}"
    if path.startswith("/results/"):
        return "/results/{id}"
    if path in _ROUTES:
        return path
    return "<other>"


def write_response(handler, status: int, body: bytes,
                   content_type: str) -> bool:
    """Write one complete HTTP response, tolerating a gone client.

    A client that disconnects mid-response (curl timeout, closed
    browser tab) surfaces as ``BrokenPipeError``/``ConnectionResetError``
    from the socket write; that is the client's problem, not grounds
    for a handler-thread traceback.  Returns False when the client was
    gone.  Module-level so the tolerance is testable without a live
    socket.
    """
    try:
        handler.send_response(status)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)
        return True
    except (BrokenPipeError, ConnectionResetError):
        handler.close_connection = True
        return False


class SimulationService:
    """Owns the job store, the worker thread, and the HTTP server."""

    def __init__(self, *, options: "RunOptions | None" = None,
                 cache=None,
                 max_pending_per_tenant: int = 4,
                 host: str = DEFAULT_HOST,
                 port: int = DEFAULT_PORT) -> None:
        self.options = options if options is not None \
            else RunOptions.from_env()
        self._cache_setting = cache
        self.store = JobStore(
            max_pending_per_tenant=max_pending_per_tenant)
        self.host = host
        self.port = port
        self.log = ServiceLog(trace_path(self.options.trace))
        self.counters = {
            "jobs_submitted": 0,
            "jobs_completed": 0,
            "jobs_failed": 0,
            "quota_rejections": 0,
            "cache_hits": 0,
            "executed": 0,
            "store_hits": 0,
            "store_misses": 0,
            "store_bytes_read": 0,
            "store_bytes_written": 0,
        }
        self._counter_lock = threading.Lock()
        #: Latency distributions, maintained under their own lock (the
        #: counter lock stays cheap for the submit path): job kind ->
        #: queue-wait / execution histograms, route -> HTTP latency,
        #: (route, status) -> request count.
        self._metrics_lock = threading.Lock()
        self._queue_wait_hist: "dict[str, BucketHistogram]" = {}
        self._run_hist: "dict[str, BucketHistogram]" = {}
        self._http_hist: "dict[str, BucketHistogram]" = {}
        self._http_requests: "dict[tuple[str, int], int]" = {}
        self._started_monotonic: "float | None" = None
        self._stop = threading.Event()
        self._worker: "threading.Thread | None" = None
        self._http_thread: "threading.Thread | None" = None
        self._httpd: "ThreadingHTTPServer | None" = None

    # -- counters ----------------------------------------------------------

    def _bump(self, name: str, amount: int = 1) -> None:
        with self._counter_lock:
            self.counters[name] += amount

    def stats_payload(self) -> dict:
        with self._counter_lock:
            counters = dict(self.counters)
        return {
            "counters": counters,
            "jobs": self.store.counts(),
            "options": dict(self.options.describe()),
        }

    # -- measurement -------------------------------------------------------

    def uptime_seconds(self) -> float:
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    def observe_http(self, route: str, status: int,
                     seconds: float) -> None:
        """Record one handled HTTP request into the scrape state."""
        with self._metrics_lock:
            key = (route, status)
            self._http_requests[key] = self._http_requests.get(key, 0) + 1
            hist = self._http_hist.get(route)
            if hist is None:
                hist = self._http_hist[route] = BucketHistogram()
            hist.observe(seconds)

    def _observe_job(self, job) -> None:
        """Record a finished job's queue-wait and execution latency."""
        kind = job.request.kind
        queue_wait = job.queue_wait_seconds()
        run_seconds = job.run_seconds()
        with self._metrics_lock:
            if queue_wait is not None:
                hist = self._queue_wait_hist.get(kind)
                if hist is None:
                    hist = self._queue_wait_hist[kind] = BucketHistogram()
                hist.observe(queue_wait)
            if run_seconds is not None:
                hist = self._run_hist.get(kind)
                if hist is None:
                    hist = self._run_hist[kind] = BucketHistogram()
                hist.observe(run_seconds)

    def health_payload(self) -> dict:
        """``GET /healthz``: still 200/"ok"-shaped, plus vitals."""
        from .. import __version__

        return {
            "status": "ok",
            "version": __version__,
            "uptime_seconds": self.uptime_seconds(),
            "queue_depth": self.store.queue_depth(),
        }

    def metrics_payload(self) -> str:
        """``GET /metrics``: the full Prometheus text exposition."""
        from .. import __version__

        expo = MetricsExposition()
        with self._counter_lock:
            counters = dict(self.counters)
        for name in sorted(counters):
            expo.counter(f"repro_service_{name}_total",
                         _COUNTER_HELP.get(name, f"Service counter {name}."),
                         counters[name])
        expo.gauge("repro_service_queue_depth",
                   "Jobs submitted but not yet started.",
                   self.store.queue_depth())
        expo.gauge("repro_service_inflight_jobs",
                   "Jobs currently executing.",
                   self.store.running_count())
        expo.gauge("repro_service_uptime_seconds",
                   "Seconds since the HTTP server started.",
                   self.uptime_seconds())
        expo.gauge("repro_service_info",
                   "Constant 1; the version rides the label.",
                   1, {"version": __version__})
        with self._metrics_lock:
            for kind in sorted(self._queue_wait_hist):
                expo.attach_histogram(
                    "repro_job_queue_wait_seconds",
                    "Submission-to-start latency by job kind.",
                    self._queue_wait_hist[kind].copy(), {"kind": kind})
            for kind in sorted(self._run_hist):
                expo.attach_histogram(
                    "repro_job_run_seconds",
                    "Execution latency by job kind.",
                    self._run_hist[kind].copy(), {"kind": kind})
            for route in sorted(self._http_hist):
                expo.attach_histogram(
                    "repro_http_request_seconds",
                    "HTTP request handling latency by route.",
                    self._http_hist[route].copy(), {"route": route})
            for (route, status), count in sorted(
                    self._http_requests.items()):
                expo.counter("repro_http_requests_total",
                             "HTTP requests handled, by route and status.",
                             count, {"route": route,
                                     "status": str(status)})
        return expo.render()

    # -- job intake --------------------------------------------------------

    def submit(self, tenant: str, request: RunRequest):
        """Enqueue one request (raises :class:`QuotaExceeded`).

        Mints the job's correlation ``run_id`` here — at the boundary
        where the request enters the system — so even the queued-job
        status payload already carries the id its telemetry will be
        stamped with.
        """
        run_id = mint_run_id()
        try:
            record = self.store.submit(tenant, request, run_id=run_id)
        except QuotaExceeded:
            self._bump("quota_rejections")
            raise
        self._bump("jobs_submitted")
        self.log.job(state="queued", job_id=record.job_id, tenant=tenant,
                     kind=request.kind, run_id=run_id)
        return record

    # -- worker thread -----------------------------------------------------

    def _run_job(self, job) -> None:
        self.store.mark_running(job.job_id)
        self.log.job(state="running", job_id=job.job_id, tenant=job.tenant,
                     kind=job.request.kind, run_id=job.run_id,
                     queue_wait_seconds=job.queue_wait_seconds())
        store_before = global_store_stats().as_dict()
        try:
            # The job runs under the service's validated options —
            # apply() exports them (and removes strays) for the
            # execution extent, which worker processes inherit.  The
            # job's run_id rides along, stamping every span, event,
            # and trace record the execution produces.
            options = self.options.with_overrides(run_id=job.run_id)
            with options.apply():
                result = execute_request(
                    job.request,
                    cache=self._resolve_job_cache(),
                )
        except Exception as exc:  # a bad job must not kill the worker
            self.store.mark_failed(job.job_id, f"{type(exc).__name__}: {exc}")
            self._bump("jobs_failed")
            self._fold_store_stats(store_before)
            self._observe_job(job)
            self.log.job(state="failed", job_id=job.job_id,
                         tenant=job.tenant, kind=job.request.kind,
                         run_id=job.run_id, run_seconds=job.run_seconds(),
                         error=f"{type(exc).__name__}: {exc}")
            return
        self.store.mark_done(job.job_id, result)
        self._bump("jobs_completed")
        self._bump("cache_hits" if result.cached else "executed")
        self._fold_store_stats(store_before)
        self._observe_job(job)
        self.log.job(state="done", job_id=job.job_id, tenant=job.tenant,
                     kind=job.request.kind, run_id=job.run_id,
                     run_seconds=job.run_seconds(), cached=result.cached)

    def _fold_store_stats(self, before: dict) -> None:
        """Fold the job's checkpoint-store traffic into service counters.

        The store keeps process-wide totals
        (:func:`~repro.store.global_store_stats`); the delta across one
        job's execution extent is that job's traffic.  Only in-process
        traffic is visible — pool workers accumulate in their own
        processes — which matches how the service executes jobs (the
        read-through Phase A runs in the worker thread for matrix jobs'
        shared scan and in-process cells).
        """
        now = global_store_stats().as_dict()
        for name in ("hits", "misses", "bytes_read", "bytes_written"):
            delta = now[name] - before[name]
            if delta:
                self._bump(f"store_{name}", delta)

    def _resolve_job_cache(self):
        if self._cache_setting is not None:
            return self._cache_setting
        return self.options.result_cache

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            job = self.store.next_job(timeout=_WORKER_POLL_SECONDS)
            if job is None:
                continue
            self._run_job(job)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bind the HTTP server and start the worker (non-blocking)."""
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((self.host, self.port), handler)
        # A requested port of 0 means "any free port"; publish the real one.
        self.port = self._httpd.server_address[1]
        self._started_monotonic = time.monotonic()
        self._stop.clear()
        self._worker = threading.Thread(
            target=self._worker_loop, name="repro-service-worker",
            daemon=True)
        self._worker.start()
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-service-http",
            daemon=True)
        self._http_thread.start()

    def serve_forever(self) -> None:
        """Blocking entry point for ``repro serve``."""
        self.start()
        try:
            while not self._stop.is_set():
                self._stop.wait(1.0)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        self._stop.set()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        # Join both threads: shutdown() returns once serve_forever
        # exits, but a repeatedly start/stopped service must not
        # accumulate half-dead HTTP threads.
        if self._http_thread is not None:
            self._http_thread.join(timeout=5.0)
            self._http_thread = None
        if self._worker is not None:
            self._worker.join(timeout=5.0)
            self._worker = None

    def __enter__(self) -> "SimulationService":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"


def _make_handler(service: SimulationService):
    """A request-handler class bound to one service instance."""

    class Handler(BaseHTTPRequestHandler):
        # The default stderr-per-request logging stays off; the access
        # records of the REPRO_TRACE file replace it.
        def log_message(self, format, *args):  # noqa: A002
            pass

        def _send(self, status: int, payload: dict) -> None:
            body = json.dumps(payload, sort_keys=True).encode()
            write_response(self, status, body, "application/json")
            self._finish_request(status)

        def _send_text(self, status: int, text: str) -> None:
            write_response(self, status, text.encode("utf-8"),
                           "text/plain; version=0.0.4; charset=utf-8")
            self._finish_request(status)

        def _finish_request(self, status: int) -> None:
            """Fold this request into the scrape state and access records."""
            duration = time.perf_counter() - getattr(
                self, "_started", time.perf_counter())
            route = normalize_route(self.path)
            service.observe_http(route, status, duration)
            context = getattr(self, "_log_context", {})
            service.log.access(method=self.command, route=route,
                               status=status, duration_seconds=duration,
                               **context)

        def _begin_request(self) -> None:
            self._started = time.perf_counter()
            #: tenant/run_id/job_id for the access record, filled in
            #: by routes that resolve a job.
            self._log_context: dict = {}

        # -- POST /jobs ----------------------------------------------------

        def do_POST(self) -> None:
            self._begin_request()
            if self.path.rstrip("/") != "/jobs":
                self._send(404, {"error": f"unknown path {self.path!r}"})
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
                raw = self.rfile.read(length)
                body = json.loads(raw.decode() or "{}")
                if not isinstance(body, dict):
                    raise ValueError("request body must be a JSON object")
                tenant = str(body.get("tenant", "default"))
                request = RunRequest.from_payload(
                    body.get("request", body.get("job", {})))
            except (ValueError, TypeError) as exc:
                self._send(400, {"error": str(exc)})
                return
            self._log_context = {"tenant": tenant}
            try:
                record = service.submit(tenant, request)
            except QuotaExceeded as exc:
                self._send(429, {"error": str(exc),
                                 "tenant": exc.tenant,
                                 "limit": exc.limit})
                return
            self._log_context.update(run_id=record.run_id,
                                     job_id=record.job_id)
            self._send(202, {"job_id": record.job_id,
                             "run_id": record.run_id,
                             "state": record.state})

        # -- GET routes ----------------------------------------------------

        def do_GET(self) -> None:
            self._begin_request()
            path = self.path.rstrip("/") or "/"
            if path == "/healthz":
                self._send(200, service.health_payload())
            elif path == "/stats":
                self._send(200, service.stats_payload())
            elif path == "/metrics":
                self._send_text(200, service.metrics_payload())
            elif path.startswith("/jobs/"):
                self._job_status(path[len("/jobs/"):])
            elif path.startswith("/results/"):
                self._job_result(path[len("/results/"):])
            else:
                self._send(404, {"error": f"unknown path {self.path!r}"})

        def _job_context(self, job) -> None:
            self._log_context = {"tenant": job.tenant,
                                 "run_id": job.run_id,
                                 "job_id": job.job_id}

        def _job_status(self, job_id: str) -> None:
            job = service.store.get(job_id)
            if job is None:
                self._send(404, {"error": f"unknown job {job_id!r}"})
                return
            self._job_context(job)
            self._send(200, job.status_payload())

        def _job_result(self, job_id: str) -> None:
            job = service.store.get(job_id)
            if job is None:
                self._send(404, {"error": f"unknown job {job_id!r}"})
                return
            self._job_context(job)
            if job.state == "failed":
                self._send(500, {"job_id": job_id, "state": "failed",
                                 "error": job.error})
            elif job.state != "done":
                self._send(202, {"job_id": job_id, "state": job.state})
            else:
                self._send(200, job.result.to_payload())

    return Handler
