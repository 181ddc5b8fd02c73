"""Perf bench: service job throughput, cache-hit speedup, and
in-process vs process-pool equivalence.

Three claims are asserted here:

- **The service adds bookkeeping, not simulation.**  A job submitted
  over HTTP produces the byte-identical payload of an inline
  :func:`repro.api.execute_request` call; throughput (jobs/sec) is
  shown in the table (machine-dependent, never gated).
- **Repeats are near-free.**  Resubmitting the same requests is served
  from the content-addressed result cache without re-entering
  execution — asserted via the service counters (``executed`` stays
  put, ``cache_hits`` rises) — and the per-job wall speedup is gated.
- **The fan-out is invisible.**  The same matrix request run with
  ``jobs=1`` (cells in process) and ``jobs=2`` (cells in a process
  pool) yields one identical payload (deterministic fold).
"""

from __future__ import annotations

import json
import time

from conftest import emit
from repro.api import RunRequest, execute_request
from repro.harness import format_table
from repro.harness.options import RunOptions
from repro.service import ServiceClient, SimulationService

WORKLOADS = ("gcc", "mcf")
METHODS = ("R$BP (20%)",)
MIN_CACHE_HIT_SPEEDUP = 2.0


def _requests(scale):
    return [
        RunRequest(kind="sample", workloads=(name,), methods=METHODS,
                   design=scale.name)
        for name in WORKLOADS
    ]


def test_service_throughput(benchmark, scale, tmp_path):
    requests = _requests(scale)

    # Inline baseline: the exact payloads the service must reproduce.
    start = time.perf_counter()
    inline = [execute_request(request, cache="off")
              for request in requests]
    inline_seconds = time.perf_counter() - start

    cache_dir = tmp_path / "service-cache"
    service = SimulationService(
        options=RunOptions(scale=scale.name),
        cache=str(cache_dir),
        port=0,
    )
    with service:
        client = ServiceClient(service.url)

        # Cold pass: every job executes for real.
        start = time.perf_counter()
        job_ids = [client.submit(request) for request in requests]
        fresh = [client.result(job_id) for job_id in job_ids]
        fresh_seconds = time.perf_counter() - start

        assert all(
            remote.payload == local.payload
            for remote, local in zip(fresh, inline)
        ), "service payloads diverged from inline execution"
        assert not any(result.cached for result in fresh)

        # Warm pass: same requests, served from the result cache.
        start = time.perf_counter()
        job_ids = [client.submit(request) for request in requests]
        cached = [client.result(job_id) for job_id in job_ids]
        cached_seconds = time.perf_counter() - start

        assert all(result.cached for result in cached)
        assert all(
            hit.payload == cold.payload
            for hit, cold in zip(cached, fresh)
        ), "cache hits diverged from the payloads they cached"
        counters = client.stats()["counters"]

    # The counters prove the warm pass never re-entered execution.
    assert counters["executed"] == len(requests)
    assert counters["cache_hits"] == len(requests)
    assert counters["jobs_completed"] == 2 * len(requests)

    cache_hit_speedup = fresh_seconds / max(cached_seconds, 1e-9)
    assert cache_hit_speedup >= MIN_CACHE_HIT_SPEEDUP, (
        f"cache-hit pass only {cache_hit_speedup:.1f}x faster than the "
        f"cold pass (expected >= {MIN_CACHE_HIT_SPEEDUP:.0f}x)"
    )

    # Fan-out equivalence: one matrix request, in process (jobs=1) and
    # in a process pool (jobs=2), one payload.
    payloads = {}
    backend_seconds = {}
    for jobs in (1, 2):
        matrix_request = RunRequest(
            kind="matrix", workloads=WORKLOADS, methods=("rsr", "smarts"),
            design=scale.name, jobs=jobs,
        )
        name = f"jobs={jobs}"
        start = time.perf_counter()
        result = execute_request(matrix_request, cache="off")
        backend_seconds[name] = time.perf_counter() - start
        payloads[name] = json.dumps(result.payload, sort_keys=True)
    assert len(set(payloads.values())) == 1, (
        "matrix payloads diverged between jobs=1 and jobs=2: "
        f"{sorted(payloads)}"
    )

    rows = [
        ["inline", f"{inline_seconds:.2f}s", "-", "-"],
        ["service (fresh)", f"{fresh_seconds:.2f}s",
         f"{len(requests) / max(fresh_seconds, 1e-9):.2f}",
         "payloads == inline"],
        ["service (cached)", f"{cached_seconds:.2f}s",
         f"{len(requests) / max(cached_seconds, 1e-9):.2f}",
         f"{cache_hit_speedup:.1f}x vs fresh, 0 re-executions"],
    ] + [
        [f"matrix via {name}", f"{seconds:.2f}s", "-",
         "bit-identical"]
        for name, seconds in sorted(backend_seconds.items())
    ]

    def render():
        return format_table(
            ["path", "wall", "jobs/sec", "equivalence"], rows,
            title=f"Service throughput ({scale.name} tier): "
                  f"{len(requests)} jobs, cache-hit speedup "
                  f"{cache_hit_speedup:.1f}x",
        )

    text = benchmark.pedantic(render, rounds=3, iterations=1)
    emit("service_throughput", text)
