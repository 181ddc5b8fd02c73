"""Perf bench: the production engine versus the scalar reference engine.

Runs R$BP on the production engine (block-translated functional and
timing cores + vectorized reverse reconstruction) and on the reference
engine of tests/oracle_engine.py (the scalar `step()` loops of the
functional and timing cores and per-reference reverse scans; cells
labelled ``batched`` and ``scalar``) across the
full equivalence matrix — all nine paper workloads x {the raw oracle
(tests/oracle_skiplog.py), the compacted skip log} x {serial,
cluster-sharded} topologies — and writes the per-workload phase times
to ``benchmarks/results/perf_vectorized_core.txt``.

Equivalence (asserted in every cell): per-cluster IPCs, the full
WarmupCost ledger, the IPC estimate, and the telemetry event counters
(which subsume the gap-log record counts and the reconstruction
scan/apply/skip accounting) are bit-identical between the two modes.

Headline speedup (asserted): the phases the two engines implement
differently — the cold functional simulation of skip regions
(``cold_skip``, plus the functional ``prefix``) and reverse
reconstruction (``reconstruct``) — run >= 2x faster batched than
scalar, aggregated
over the whole matrix at the bench tier.  The detailed hot-simulation
phase (``hot_sim``) is reported alongside but not part of the gated
aggregate: the two timing cores differ there, but much of its time is
cache and predictor work that both modes share.  Whole-run wall-clock
speedup is shown in the table's title.
"""

from __future__ import annotations

import contextlib

from conftest import emit
from repro.core import ReverseStateReconstruction
from repro.harness import format_table
from repro.sampling import SampledSimulator
from repro.telemetry import Telemetry
from repro.workloads import PAPER_WORKLOADS, build_workload
from tests.oracle_engine import reference_engine
from tests.oracle_skiplog import SOURCES

TOPOLOGIES = (("serial", None), ("sharded", 2))
#: Phases the reference engine runs on its scalar twins.
GATED_PHASES = ("cold_skip", "prefix", "reconstruct")


def _run_cell(simulator, source: str, batched: bool) -> dict:
    engine = contextlib.nullcontext if batched else reference_engine
    with engine():
        result = simulator.run(
            ReverseStateReconstruction(fraction=1.0,
                                       source=SOURCES[source])
        )
    snapshot = result.extra["telemetry"]
    phases = dict(snapshot.phase_seconds)
    return {
        "mode": "batched" if batched else "scalar",
        "estimate": result.estimate.mean,
        "cluster_ipcs": result.cluster_ipcs,
        "cost": result.cost.as_dict(),
        "counters": dict(snapshot.counters),
        "gated_seconds": sum(phases.get(name, 0.0)
                             for name in GATED_PHASES),
        "hot_sim_seconds": phases.get("hot_sim", 0.0),
        "wall_seconds": result.wall_seconds,
    }


def test_perf_vectorized_core(benchmark, scale):
    cells = []
    rows = []
    for workload_name in PAPER_WORKLOADS:
        workload = build_workload(workload_name, mem_scale=scale.mem_scale)
        for topology, cluster_jobs in TOPOLOGIES:
            simulator = SampledSimulator(
                workload, scale.regimen(), scale.configs(),
                warmup_prefix=scale.warmup_prefix,
                detail_ramp=scale.detail_ramp,
                telemetry=Telemetry,
                cluster_jobs=cluster_jobs,
            )
            for source in SOURCES:
                scalar = _run_cell(simulator, source, batched=False)
                batched = _run_cell(simulator, source, batched=True)
                label = f"{workload_name}/{source}/{topology}"
                for key in ("cluster_ipcs", "cost", "estimate", "counters"):
                    assert scalar[key] == batched[key], (
                        f"{label}: {key} diverges between scalar and "
                        f"batched cores"
                    )
                cells += (scalar, batched)
                if topology == "serial":
                    rows.append([
                        workload_name, source,
                        f"{scalar['gated_seconds']:.3f}s",
                        f"{batched['gated_seconds']:.3f}s",
                        f"{scalar['gated_seconds'] / batched['gated_seconds']:.2f}x",
                        f"{scalar['hot_sim_seconds']:.3f}s",
                        f"{scalar['wall_seconds'] / batched['wall_seconds']:.2f}x",
                    ])

    def aggregate(key: str, mode: str) -> float:
        return sum(c[key] for c in cells if c["mode"] == mode)

    def speedup(key: str) -> float:
        batched_total = aggregate(key, "batched")
        return (aggregate(key, "scalar") / batched_total
                if batched_total else float("inf"))

    # Two modes x nine workloads x two sources x two topologies.
    assert len(cells) == 2 * 9 * 2 * 2, len(cells)
    batch_phase_speedup = speedup("gated_seconds")
    wall_speedup = speedup("wall_seconds")

    # The ci tier's tiny regions leave less straight-line span for the
    # batch interpreter to amortize over, so the smoke bar is lower.
    bar = 2.0 if scale.name == "bench" else 1.5
    assert batch_phase_speedup >= bar, (
        f"batch-gated phase speedup {batch_phase_speedup:.2f}x below the "
        f"{bar:.1f}x bar at the {scale.name} tier"
    )

    def render():
        return format_table(
            ["workload", "source", "scalar gated", "batched gated",
             "gated speedup", "hot_sim", "wall speedup"],
            rows,
            title=f"Production vs reference engine ({scale.name} tier, "
                  f"serial rows): gated phases {batch_phase_speedup:.2f}x, "
                  f"wall {wall_speedup:.2f}x, all cells bit-identical",
        )

    text = benchmark.pedantic(render, rounds=3, iterations=1)
    emit("perf_vectorized_core", text)
