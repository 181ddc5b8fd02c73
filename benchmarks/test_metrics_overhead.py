"""Perf bench: observability off-mode bit-identity and logging overhead.

Four claims are asserted here:

- **Off means off.**  With ``REPRO_TRACE`` unset and nobody
  scraping ``/metrics``, a service job's payload is byte-identical to
  an inline :func:`repro.api.execute_request` call, and no ``run_id``
  leaks into any result payload (correlation is observability-only;
  results stay content-addressed).
- **On is still correct.**  With the ``REPRO_TRACE`` record file
  (the runs' records and the service's access and job records) and
  concurrent ``/metrics`` scrapes both enabled, the payloads are
  *still* byte-identical to inline — the whole observability stack is
  stamp-and-append, never result-mutating — and the scrape plus the
  offline ``repro metrics`` twin both satisfy the strict exposition
  parser.
- **The join works.**  Every job's ``run_id`` (from its status
  payload) appears in the record file's ``access`` or ``job`` records
  and in its ``run_start``, ``cluster`` and ``span`` records.
- **On is cheap.**  The full-observability pass is wall-bounded
  against the off pass (min ratio over alternating off/on pairs, the
  same noise-damping scheme as ``test_span_overhead.py``).
"""

from __future__ import annotations

import json
import time

from conftest import emit
from repro.api import RunRequest, execute_request
from repro.harness import format_table
from repro.harness.options import RunOptions
from repro.service import ServiceClient, SimulationService
from repro.telemetry import (
    exposition_from_records,
    parse_exposition,
    read_trace,
)

WORKLOADS = ("gcc", "mcf")
METHODS = ("R$BP (20%)",)
#: Alternating (off, on) service passes; the bounded ratio is the
#: minimum over pairs so a one-off scheduler hiccup on either side
#: cannot flip the gate.
PAIRS = 2
#: Hard bound on the observed overhead of full observability.
OVERHEAD_BOUND = 1.5


def _requests(scale):
    return [
        RunRequest(kind="sample", workloads=(name,), methods=METHODS,
                   design=scale.name)
        for name in WORKLOADS
    ]


def _run_service_pass(scale, requests, *, observe, artifact_dir):
    """One cold service pass; returns (payload blobs, wall, artifacts)."""
    if observe:
        artifact_dir.mkdir(parents=True, exist_ok=True)
        options = RunOptions(
            scale=scale.name,
            trace=str(artifact_dir / "trace.jsonl"),
        )
    else:
        options = RunOptions(scale=scale.name)
    service = SimulationService(options=options, cache="off", port=0)
    artifacts = {"run_ids": [], "metrics_text": None}
    with service:
        client = ServiceClient(service.url)
        start = time.perf_counter()
        job_ids = [client.submit(request) for request in requests]
        if observe:
            # Scrape mid-flight: the exposition must parse while jobs
            # are executing, not just at rest.
            parse_exposition(client.metrics())
        results = [client.result(job_id) for job_id in job_ids]
        seconds = time.perf_counter() - start
        if observe:
            artifacts["run_ids"] = [client.status(job_id)["run_id"]
                                    for job_id in job_ids]
            artifacts["metrics_text"] = client.metrics()
    blobs = [json.dumps(result.payload, sort_keys=True)
             for result in results]
    return blobs, seconds, artifacts


def test_metrics_overhead(benchmark, scale, tmp_path):
    requests = _requests(scale)
    inline = [
        json.dumps(execute_request(request, cache="off").payload,
                   sort_keys=True)
        for request in requests
    ]

    off_seconds, on_seconds = [], []
    off_identical = on_identical = True
    run_id_leaked = False
    artifacts = {}
    for pair in range(PAIRS):
        off_blobs, seconds, _ = _run_service_pass(
            scale, requests, observe=False,
            artifact_dir=tmp_path / f"off-{pair}")
        off_seconds.append(seconds)
        off_identical &= off_blobs == inline
        run_id_leaked |= any("run_id" in blob for blob in off_blobs)

        on_blobs, seconds, artifacts = _run_service_pass(
            scale, requests, observe=True,
            artifact_dir=tmp_path / f"on-{pair}")
        on_seconds.append(seconds)
        on_identical &= on_blobs == inline

    assert off_identical, \
        "observability-off service payloads diverged from inline"
    assert on_identical, \
        "observability-on service payloads diverged from inline"
    assert not run_id_leaked, "run_id leaked into a result payload"

    # The last on-pass's artifacts carry the acceptance grep: every
    # job's run_id joins the service's access/job records and each
    # record type of the trace file that a sampled run writes.
    last_dir = tmp_path / f"on-{PAIRS - 1}"
    trace_records = read_trace(str(last_dir / "trace.jsonl"))
    service_records = [record for record in trace_records
                       if record["type"] in ("access", "job")]
    assert artifacts["run_ids"] and all(
        any(record.get("run_id") == run_id for record in service_records)
        and {"run_start", "run_end", "cluster", "span"} <= {
            record["type"] for record in trace_records
            if record.get("run_id") == run_id}
        for run_id in artifacts["run_ids"]
    ), "a job's run_id is missing from the service or run records"

    # Both exposition flavors must satisfy the strict parser: the live
    # scrape and the offline `repro metrics` rendering of the trace.
    live_families = parse_exposition(artifacts["metrics_text"])
    offline_families = parse_exposition(
        exposition_from_records(trace_records).render())
    assert {"repro_job_run_seconds", "repro_job_queue_wait_seconds",
            "repro_service_jobs_submitted_total"} <= set(live_families), \
        "live exposition families incomplete"
    assert {"repro_clusters_total", "repro_run_info"} <= \
        set(offline_families), "offline exposition families incomplete"

    overhead_ratio = min(on / off
                         for on, off in zip(on_seconds, off_seconds))
    assert overhead_ratio <= OVERHEAD_BOUND, (
        f"full observability costs {overhead_ratio:.3f}x the off pass "
        f"(bound {OVERHEAD_BOUND}x)"
    )

    rows = [
        ["service, observability off",
         f"{min(off_seconds):.2f}s", "payloads == inline"],
        ["service, trace+scrapes",
         f"{min(on_seconds):.2f}s",
         f"{overhead_ratio:.3f}x off-pass, payloads == inline"],
        ["run_id join",
         f"{len(artifacts['run_ids'])} jobs",
         "service + run records all stamped"],
        ["exposition",
         f"{len(live_families)} live / {len(offline_families)} offline",
         "strict parser clean"],
    ]

    def render():
        return format_table(
            ["path", "wall", "guarantee"], rows,
            title=f"Observability overhead ({scale.name} tier): "
                  f"{len(requests)} jobs/pass, {PAIRS} off/on pairs",
        )

    text = benchmark.pedantic(render, rounds=3, iterations=1)
    emit("metrics_overhead", text)
