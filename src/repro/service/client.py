"""A small stdlib client for the simulation service.

:class:`ServiceClient` wraps the JSON routes of
:class:`~.server.SimulationService` with typed helpers — submit a
:class:`~repro.api.RunRequest`, wait for completion, reconstruct the
:class:`~repro.api.RunResult` — so callers (the ``repro submit`` CLI,
the tests, remote scripts) never hand-build URLs or parse raw bodies.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

from ..api import RunRequest, RunResult


class ServiceError(Exception):
    """A non-success response from the service, with its status code."""

    def __init__(self, status: int, payload: dict) -> None:
        detail = payload.get("error", payload)
        super().__init__(f"service returned HTTP {status}: {detail}")
        self.status = status
        self.payload = payload


class ServiceClient:
    """Typed access to one running simulation service."""

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- plumbing ----------------------------------------------------------

    def _call(self, path: str, body: "dict | None" = None,
              *, expect: "tuple[int, ...]" = (200,)) -> "tuple[int, dict]":
        url = f"{self.base_url}{path}"
        data = None
        headers = {}
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                status = response.status
                payload = json.loads(response.read().decode() or "{}")
        except urllib.error.HTTPError as exc:
            status = exc.code
            try:
                payload = json.loads(exc.read().decode() or "{}")
            except (ValueError, OSError):
                payload = {"error": str(exc)}
        if status not in expect:
            raise ServiceError(status, payload)
        return status, payload

    # -- API ---------------------------------------------------------------

    def health(self) -> dict:
        return self._call("/healthz")[1]

    def stats(self) -> dict:
        return self._call("/stats")[1]

    def metrics(self) -> str:
        """``GET /metrics``: the raw Prometheus text exposition."""
        url = f"{self.base_url}/metrics"
        with urllib.request.urlopen(url,
                                    timeout=self.timeout) as response:
            if response.status != 200:
                raise ServiceError(response.status, {"error": "/metrics"})
            return response.read().decode("utf-8")

    def submit(self, request: RunRequest, *,
               tenant: str = "default") -> str:
        """POST the request; returns the job id (raises on 4xx/5xx)."""
        _, payload = self._call(
            "/jobs",
            {"tenant": tenant, "request": request.to_payload()},
            expect=(202,),
        )
        return payload["job_id"]

    def status(self, job_id: str) -> dict:
        return self._call(f"/jobs/{job_id}")[1]

    def result(self, job_id: str, *, timeout: float = 300.0,
               poll_seconds: float = 0.1) -> RunResult:
        """Wait for ``/results/<id>``; reconstruct the RunResult.

        Each request asks the server to hold it until the job finishes
        (``?wait=``), for no longer than the time left before `timeout`
        nor half the socket timeout, so the answer has time to arrive.
        A 202 means the hold ran out first: the client pauses
        `poll_seconds` and asks again.  A failed job raises
        :class:`ServiceError` carrying the service's error string; a
        job still pending after `timeout` seconds raises
        ``TimeoutError``.
        """
        deadline = time.monotonic() + timeout
        while True:
            wait = max(0.0, min(deadline - time.monotonic(),
                                self.timeout / 2))
            status, payload = self._call(
                f"/results/{job_id}?wait={wait:.3f}", expect=(200, 202))
            if status == 200:
                return RunResult(
                    request=RunRequest.from_payload(payload["request"]),
                    payload=payload["payload"],
                    cached=payload["cached"],
                    wall_seconds=payload["wall_seconds"],
                )
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {payload.get('state')!r} "
                    f"after {timeout:.0f}s")
            time.sleep(poll_seconds)

    def run(self, request: RunRequest, *, tenant: str = "default",
            timeout: float = 300.0) -> RunResult:
        """Submit and wait: the one-call convenience wrapper."""
        job_id = self.submit(request, tenant=tenant)
        return self.result(job_id, timeout=timeout)
