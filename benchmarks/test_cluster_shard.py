"""Perf bench: the two-phase cluster-sharded pipeline vs the serial walk.

Records ``BENCH_pr5.json`` at the repo root, which CI's
``cluster-shard-smoke`` job validates.
Three serial-equivalence guarantees are asserted and recorded as
booleans — they must never flip:

- **Costs are identical.**  The cold scan visits the same positions and
  fills the same gap logs as the serial walk, so the entire WarmupCost
  ledger (functional instructions, log records, hot instructions,
  reconstruction updates) matches exactly.
- **Worker count is irrelevant.**  ``cluster_jobs=2`` and
  ``cluster_jobs=4`` execute the identical two-phase schedule, so their
  results are bit-identical (this is what lets the result-cache key
  ignore the worker count).
- **Raw == compacted.**  The compacted skip log and the raw oracle
  (tests/oracle_skiplog.py) hand shards the same reconstruction answers,
  so sharded runs are bit-identical across them: per-cluster IPCs and
  the full WarmupCost ledger.

What shards legitimately change is the stale microarchitectural state a
serial run carries into each cluster underneath the reconstruction; the
residual per-cluster IPC bias is measured directly (serial vs sharded)
and attributed by the accuracy audit riding inside the shard workers
(``cold_start_error`` per cluster).  Both land in the gated summary, so
the trajectory tracker catches any growth in shard bias.  Wall-clock
numbers (including the shard speedup) are machine-dependent and live in
the informational ``timing`` block, outside the gate.
"""

from __future__ import annotations

import json
import os
import pathlib

from conftest import emit
from repro.core import ReverseStateReconstruction
from repro.harness import audit_summary, format_table
from repro.sampling import SampledSimulator
from repro.telemetry import AUDIT_ENV_VAR, Telemetry
from repro.workloads import build_workload
from tests.oracle_skiplog import SkipRegionLog

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_pr5.json"
WORKLOADS = ("gcc", "mcf")


def _simulator(workload, scale, cluster_jobs=None):
    return SampledSimulator(
        workload, scale.regimen(), scale.configs(),
        warmup_prefix=scale.warmup_prefix,
        detail_ramp=scale.detail_ramp,
        telemetry=Telemetry,
        cluster_jobs=cluster_jobs,
    )


def _run(simulator, audit=False, **method_kwargs):
    """One RSR run with REPRO_AUDIT forced on or off around it (shard
    workers open live sessions because the run's session is live, so
    their audit records flow back to the parent)."""
    previous = os.environ.get(AUDIT_ENV_VAR)
    os.environ[AUDIT_ENV_VAR] = "1" if audit else "0"
    try:
        return simulator.run(
            ReverseStateReconstruction(fraction=1.0, **method_kwargs))
    finally:
        if previous is None:
            os.environ.pop(AUDIT_ENV_VAR, None)
        else:
            os.environ[AUDIT_ENV_VAR] = previous


def test_cluster_shard(benchmark, scale):
    rows = []
    per_workload = []
    timing = {}
    equivalent_costs = True
    worker_invariant = True
    raw_equals_compacted = True
    ipc_biases: list[float] = []
    audit_errors: list[float] = []

    for workload_name in WORKLOADS:
        workload = build_workload(workload_name, mem_scale=scale.mem_scale)
        serial = _run(_simulator(workload, scale))
        sharded = _run(_simulator(workload, scale, cluster_jobs=2),
                       audit=True)
        wide = _run(_simulator(workload, scale, cluster_jobs=4))
        raw = _run(_simulator(workload, scale, cluster_jobs=2),
                   source=SkipRegionLog)

        if sharded.cost.as_dict() != serial.cost.as_dict():
            equivalent_costs = False
        if (wide.cluster_ipcs != sharded.cluster_ipcs
                or wide.cost.as_dict() != sharded.cost.as_dict()):
            worker_invariant = False
        if (raw.cluster_ipcs != sharded.cluster_ipcs
                or raw.cost.as_dict() != sharded.cost.as_dict()):
            raw_equals_compacted = False

        biases = [abs(shard_ipc - serial_ipc)
                  for serial_ipc, shard_ipc in zip(serial.cluster_ipcs,
                                                   sharded.cluster_ipcs)]
        ipc_biases.extend(biases)
        stats = audit_summary(sharded.extra["telemetry"])[0]
        audit_errors.append(stats["mean_abs_cold_start_error"])
        # Speedup is measured on the un-audited wide run: the audited
        # one pays for divergence probes the serial run does not.
        speedup = (serial.wall_seconds / wide.wall_seconds
                   if wide.wall_seconds else float("inf"))
        timing[workload_name] = {
            "wall_seconds_serial": serial.wall_seconds,
            "wall_seconds_sharded": wide.wall_seconds,
            "wall_seconds_sharded_audited": sharded.wall_seconds,
            "shard_speedup": speedup,
        }
        per_workload.append({
            "workload": workload_name,
            "mean_abs_ipc_bias": sum(biases) / len(biases),
            "max_abs_ipc_bias": max(biases),
            **stats,
        })
        rows.append([
            workload_name,
            f"{serial.estimate.mean:.4f}",
            f"{sharded.estimate.mean:.4f}",
            f"{max(biases):.4f}",
            f"{stats['cold_start_bias']:+.4f}",
            "yes" if sharded.cost.as_dict() == serial.cost.as_dict()
            else "NO",
            f"{speedup:.2f}x",
        ])

    assert equivalent_costs, "sharded cost ledger diverged from serial"
    assert worker_invariant, "results depend on the shard worker count"
    assert raw_equals_compacted, \
        "sharded raw and compacted sources diverged"

    payload = {
        "bench": "cluster_shard",
        "scale": scale.name,
        "workloads": list(WORKLOADS),
        # Deterministic equivalence guarantees and bias measurements
        # only: safe to gate tightly.
        "summary": {
            "serial_equivalent_costs": equivalent_costs,
            "worker_invariant_results": worker_invariant,
            "raw_equals_compacted_sharded": raw_equals_compacted,
            "mean_abs_shard_ipc_error":
                sum(ipc_biases) / len(ipc_biases),
            "max_abs_shard_ipc_error": max(ipc_biases),
            "mean_abs_shard_cold_start_error":
                sum(audit_errors) / len(audit_errors),
        },
        # Wall-clock numbers (including the shard speedup) are
        # machine-dependent: informational only, outside "summary".
        "timing": timing,
        "per_workload": per_workload,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")

    def render():
        return format_table(
            ["workload", "serial ipc", "shard ipc", "max |bias|",
             "audit cold bias", "costs equal", "speedup"],
            rows,
            title=f"Cluster sharding ({scale.name} tier): "
                  f"2 vs 4 workers bit-identical, raw == compacted",
        )

    text = benchmark.pedantic(render, rounds=3, iterations=1)
    emit("cluster_shard", text)
