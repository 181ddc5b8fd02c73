"""Perf bench: span tracing's cost, and its absence when off.

Two claims are asserted here and recorded into ``BENCH_pr7.json`` at the
repo root for the trajectory gate:

- **Off is free.**  A session whose span recorder is the null one
  (``Telemetry(spans=NULL_SPANS)``) runs bit-identical to a session that
  records spans — same per-cluster IPCs, same estimate — and records
  zero span records; with ``REPRO_TRACE`` unset the only residual
  hot-path work is the :func:`repro.telemetry.collection_enabled`
  environment check, which is microbenched and bounded here.
- **On is cheap.**  Spans bracket phases, not instructions: the wall
  overhead of recording spans is asserted ≤ 5% as the minimum of
  per-pair ratios over alternating off/on repetitions, after one
  untimed warm-up run per program.  Each pair runs
  adjacent in time and shares whatever ambient load the machine has, so
  the quietest pair bounds the intrinsic overhead; scheduler
  interference on a shared runner cannot fail the gate spuriously.

The recorded summary carries the zero-overhead boolean, the measured
overhead ratio, and the (deterministic) export record counts; raw
wall-clock numbers land in the informational ``timing`` block.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import statistics
import time

from conftest import emit
from repro.harness import format_table
from repro.sampling import SampledSimulator
from repro.telemetry import (
    NULL_SPANS,
    RECORD_SPAN,
    TRACE_ENV_VAR,
    Telemetry,
    collection_enabled,
    span_tree_shape,
    to_chrome_trace,
)
from repro.warmup import resolve_method
from repro.workloads import build_workload

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_pr7.json"
WORKLOADS = ("gcc", "mcf")
METHOD = "R$BP (20%)"
REPS = 5
GATE_CHECK_CALLS = 20_000
OVERHEAD_BOUND = 1.05


def _run(simulator, spans: bool):
    # A fresh session per run; spans off injects the null recorder.
    simulator.telemetry = (Telemetry if spans
                           else functools.partial(Telemetry,
                                                  spans=NULL_SPANS))
    start = time.perf_counter()
    result = simulator.run(resolve_method(METHOD))
    wall = time.perf_counter() - start
    return result, result.extra["telemetry"], wall


def test_span_overhead(benchmark, scale):
    rows = []
    timing = {}
    identical = True
    span_counts = {}
    for workload_name in WORKLOADS:
        workload = build_workload(workload_name, mem_scale=scale.mem_scale)
        simulator = SampledSimulator(
            workload, scale.regimen(), scale.configs(),
            warmup_prefix=scale.warmup_prefix,
            detail_ramp=scale.detail_ramp,
        )
        walls_off, walls_on = [], []
        result_off = snapshot_on = result_on = None
        # One untimed warm-up run: the first run of a program pays for
        # its translations and its steady-state prefix, which would land
        # on the "off" side of the first pair.
        _run(simulator, False)
        # Alternate off/on so drift (thermal, cache residency) hits both
        # sides of the ratio equally.
        for _ in range(REPS):
            result_off, snapshot_off, wall_off = _run(simulator, False)
            result_on, snapshot_on, wall_on = _run(simulator, True)
            walls_off.append(wall_off)
            walls_on.append(wall_on)
            assert snapshot_off.spans == [], (
                f"{workload_name}: span records emitted by a session "
                f"with the null span recorder"
            )
        if (result_off.cluster_ipcs != result_on.cluster_ipcs
                or result_off.estimate.mean != result_on.estimate.mean):
            identical = False

        spans = [record for record in snapshot_on.spans
                 if record.get("type") == RECORD_SPAN]
        assert spans, f"{workload_name}: spans-on run recorded no spans"
        shape = span_tree_shape(snapshot_on.spans)
        assert shape[0][0] == "run"
        chrome_events = len(to_chrome_trace(snapshot_on.spans)["traceEvents"])
        span_counts[workload_name] = {
            "span_records": len(spans),
            "total_records": len(snapshot_on.spans),
            "chrome_events": chrome_events,
        }

        pair_ratios = [on / off
                       for on, off in zip(walls_on, walls_off)]
        ratio = min(pair_ratios)
        timing[workload_name] = {
            "wall_seconds_off_min": min(walls_off),
            "wall_seconds_on_min": min(walls_on),
            "wall_seconds_off_median": statistics.median(walls_off),
            "wall_seconds_on_median": statistics.median(walls_on),
            "median_pair_ratio": statistics.median(pair_ratios),
            "overhead_ratio_on_vs_off": ratio,
        }
        assert ratio <= OVERHEAD_BOUND, (
            f"{workload_name}: spans-on wall overhead {ratio:.3f}x "
            f"exceeds the {OVERHEAD_BOUND:.2f}x bound"
        )
        rows.append([
            workload_name,
            str(len(spans)),
            str(chrome_events),
            f"{min(walls_off) * 1e3:.1f}ms",
            f"{min(walls_on) * 1e3:.1f}ms",
            f"{ratio:.3f}x",
        ])
    assert identical, "spans-on run diverged from spans-off run"

    # The entire recording-off hot-path cost is this environment check
    # (one per run, resolving the null session); bound it well under a
    # microsecond apiece.
    previous = os.environ.get(TRACE_ENV_VAR)
    os.environ[TRACE_ENV_VAR] = "0"
    try:
        start = time.perf_counter()
        for _ in range(GATE_CHECK_CALLS):
            collection_enabled()
        per_call_us = ((time.perf_counter() - start)
                       / GATE_CHECK_CALLS * 1e6)
    finally:
        if previous is None:
            os.environ.pop(TRACE_ENV_VAR, None)
        else:
            os.environ[TRACE_ENV_VAR] = previous
    assert per_call_us < 50.0, (
        f"collection_enabled() gate check costs {per_call_us:.2f}us per "
        f"call"
    )
    timing["gate_check_microseconds"] = per_call_us

    worst_ratio = max(entry["overhead_ratio_on_vs_off"]
                      for entry in timing.values()
                      if isinstance(entry, dict))
    payload = {
        "bench": "span_overhead",
        "scale": scale.name,
        "workloads": list(WORKLOADS),
        # The boolean and record counts are deterministic; the wall
        # ratio is asserted <= OVERHEAD_BOUND above on both the baseline
        # and every future run, which keeps the gate's comparison window
        # narrow even though wall clock is machine-dependent.
        "summary": {
            "spans_off_identical_results": identical,
            "spans_on_wall_overhead_ratio": worst_ratio,
            "span_records_per_run": sum(
                counts["span_records"]
                for counts in span_counts.values()),
            "chrome_events_per_run": sum(
                counts["chrome_events"]
                for counts in span_counts.values()),
        },
        "timing": timing,
        "per_workload": span_counts,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")

    def render():
        return format_table(
            ["workload", "spans", "chrome events", "wall off",
             "wall on", "on/off"],
            rows,
            title=f"Span tracing overhead ({scale.name} tier): "
                  f"gate check {per_call_us:.2f}us/call, "
                  f"off == plain, bound {OVERHEAD_BOUND:.2f}x",
        )

    text = benchmark.pedantic(render, rounds=3, iterations=1)
    emit("span_overhead", text)
