"""Perf bench: span tracing's cost, and its absence when off.

Two claims are asserted here:

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

The table in ``benchmarks/results/span_overhead.txt`` shows each
program's span and Chrome-event counts, its fastest off and on runs and
the bounded ratio.
"""

from __future__ import annotations

import functools
import os
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
        assert result_off.cluster_ipcs == result_on.cluster_ipcs, (
            f"{workload_name}: spans-on cluster IPCs diverged from "
            "spans-off")
        assert result_off.estimate.mean == result_on.estimate.mean, (
            f"{workload_name}: spans-on estimate diverged from spans-off")

        spans = [record for record in snapshot_on.spans
                 if record.get("type") == RECORD_SPAN]
        assert spans, f"{workload_name}: spans-on run recorded no spans"
        shape = span_tree_shape(snapshot_on.spans)
        assert shape[0][0] == "run"
        chrome_events = len(to_chrome_trace(snapshot_on.spans)["traceEvents"])

        ratio = min(on / off for on, off in zip(walls_on, walls_off))
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
