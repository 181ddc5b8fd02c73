"""Perf bench: the accuracy audit's cost, and its absence when off.

Two claims are asserted here:

- **Off is free.**  With ``REPRO_AUDIT`` unset the sampled run is
  bit-identical to a plain run — same per-cluster IPCs, same cost
  breakdown, zero audit records — and the only residual hot-path work is
  the :func:`repro.telemetry.audit_enabled` environment check, which is
  microbenched and bounded here.
- **On is invariant.**  Turning the audit on perturbs nothing: cluster
  IPCs and the warm-up cost accounting match the audit-off run exactly
  (probes read state; they never mutate it).

The table in ``benchmarks/results/audit_overhead.txt`` shows the
per-workload state agreements and error attribution beside the on/off
wall ratio.
"""

from __future__ import annotations

import os
import time

from conftest import emit
from repro.core import ReverseStateReconstruction
from repro.harness import audit_summary, format_table
from repro.sampling import SampledSimulator
from repro.telemetry import AUDIT_ENV_VAR, RECORD_AUDIT, Telemetry, audit_enabled
from repro.workloads import build_workload

WORKLOADS = ("gcc", "mcf")
GATE_CHECK_CALLS = 20_000


def _run(simulator, audit: bool):
    previous = os.environ.get(AUDIT_ENV_VAR)
    os.environ[AUDIT_ENV_VAR] = "1" if audit else "0"
    try:
        result = simulator.run(ReverseStateReconstruction(fraction=1.0))
    finally:
        if previous is None:
            os.environ.pop(AUDIT_ENV_VAR, None)
        else:
            os.environ[AUDIT_ENV_VAR] = previous
    return result


def _audit_records(result):
    snapshot = result.extra["telemetry"]
    return [record for record in snapshot.trace_records
            if record.get("type") == RECORD_AUDIT]


def test_audit_overhead(benchmark, scale):
    rows = []
    for workload_name in WORKLOADS:
        workload = build_workload(workload_name, mem_scale=scale.mem_scale)
        simulator = SampledSimulator(
            workload, scale.regimen(), scale.configs(),
            warmup_prefix=scale.warmup_prefix,
            detail_ramp=scale.detail_ramp,
            telemetry=Telemetry,
        )
        off = _run(simulator, audit=False)
        on = _run(simulator, audit=True)

        # Off is free: no audit residue in the run at all.
        assert not _audit_records(off), (
            f"{workload_name}: audit records emitted with REPRO_AUDIT off"
        )
        assert "audit.clusters_probed" not in \
            off.extra["telemetry"].counters

        # On is invariant: probes observe, never perturb.
        assert off.cluster_ipcs == on.cluster_ipcs, (
            f"{workload_name}: audit-on cluster IPCs diverged from "
            "audit-off")
        assert off.cost.as_dict() == on.cost.as_dict(), (
            f"{workload_name}: audit-on cost ledger diverged from "
            "audit-off")
        records = _audit_records(on)
        assert len(records) == scale.regimen().num_clusters

        stats = audit_summary(on.extra["telemetry"])[0]
        overhead = (on.wall_seconds / off.wall_seconds
                    if off.wall_seconds else float("inf"))
        rows.append([
            workload_name,
            f"{stats['mean_l1d_tag_agreement']:.3f}",
            f"{stats['mean_l2_tag_agreement']:.3f}",
            f"{stats['mean_pht_counter_agreement']:.3f}",
            f"{stats['mean_btb_agreement']:.3f}",
            f"{stats['mean_ras_agreement']:.3f}",
            f"{stats['cold_start_bias']:+.4f}",
            f"{stats['sampling_bias']:+.4f}",
            f"{overhead:.2f}x",
        ])

    # The entire audit-off hot-path cost is this environment check (the
    # controller makes one per run); bound it well under a microsecond
    # apiece so "no measurable overhead" stays an asserted property.
    os.environ[AUDIT_ENV_VAR] = "0"
    try:
        start = time.perf_counter()
        for _ in range(GATE_CHECK_CALLS):
            audit_enabled()
        per_call_us = ((time.perf_counter() - start)
                       / GATE_CHECK_CALLS * 1e6)
    finally:
        os.environ.pop(AUDIT_ENV_VAR, None)
    assert per_call_us < 50.0, (
        f"audit_enabled() gate check costs {per_call_us:.2f}us per call"
    )

    def render():
        return format_table(
            ["workload", "l1d agr", "l2 agr", "pht agr", "btb agr", "ras agr",
             "cold bias", "samp bias", "on/off wall"],
            rows,
            title=f"Accuracy audit ({scale.name} tier): "
                  f"gate check {per_call_us:.2f}us/call, off == plain",
        )

    text = benchmark.pedantic(render, rounds=3, iterations=1)
    emit("audit_overhead", text)
