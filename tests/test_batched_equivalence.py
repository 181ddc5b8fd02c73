"""End-to-end equivalence: batched vs scalar core through full runs.

The batch core (`REPRO_BATCH_CORE`) swaps the functional interpreter and
the reverse-reconstruction scans for vectorized kernels; nothing about
the simulated machine may change.  These tests run complete sampled
simulations both ways — the compacted skip log and the raw oracle
(tests/oracle_skiplog.py), serial and
cluster-sharded topologies — and require bit-identical per-cluster IPCs,
identical WarmupCost ledgers, identical IPC estimates, and identical
telemetry event counters (which subsume the gap-log record counts and
the reconstruction scan/apply/skip accounting).

The full nine-workload matrix runs in `benchmarks/test_perf_vectorized_core.py`;
this tier-1 subset keeps the guarantee under the fast test suite.
"""

from __future__ import annotations

import os

import pytest

from repro.core import ReverseStateReconstruction
from repro.harness import scale_from_env
from repro.sampling import SampledSimulator
from repro.telemetry import Telemetry
from repro.workloads import build_workload
from tests.oracle_skiplog import SOURCES

WORKLOADS = ("gcc", "mcf")
TOPOLOGIES = {"serial": None, "sharded": 2}


def _run(workload_name: str, source: str, cluster_jobs, batched: bool):
    scale = scale_from_env(default="ci")
    workload = build_workload(workload_name, mem_scale=scale.mem_scale)
    simulator = SampledSimulator(
        workload, scale.regimen(), scale.configs(),
        warmup_prefix=scale.warmup_prefix,
        detail_ramp=scale.detail_ramp,
        telemetry=Telemetry,
        cluster_jobs=cluster_jobs,
    )
    previous = os.environ.get("REPRO_BATCH_CORE")
    os.environ["REPRO_BATCH_CORE"] = "on" if batched else "off"
    try:
        result = simulator.run(
            ReverseStateReconstruction(fraction=1.0,
                                       source=SOURCES[source])
        )
    finally:
        if previous is None:
            os.environ.pop("REPRO_BATCH_CORE", None)
        else:
            os.environ["REPRO_BATCH_CORE"] = previous
    snapshot = result.extra["telemetry"]
    return {
        "cluster_ipcs": result.cluster_ipcs,
        "cost": result.cost.as_dict(),
        "estimate": result.estimate.mean,
        "counters": dict(snapshot.counters),
    }


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_batched_run_is_bit_identical(workload_name, source, topology):
    cluster_jobs = TOPOLOGIES[topology]
    scalar = _run(workload_name, source, cluster_jobs, batched=False)
    batched = _run(workload_name, source, cluster_jobs, batched=True)
    label = f"{workload_name}/{source}/{topology}"
    assert scalar["cluster_ipcs"] == batched["cluster_ipcs"], (
        f"{label}: per-cluster IPCs diverge between scalar and batched"
    )
    assert scalar["cost"] == batched["cost"], (
        f"{label}: WarmupCost ledger diverges between scalar and batched"
    )
    assert scalar["estimate"] == batched["estimate"], (
        f"{label}: IPC estimate diverges between scalar and batched"
    )
    assert scalar["counters"] == batched["counters"], (
        f"{label}: telemetry counters diverge between scalar and batched"
    )
