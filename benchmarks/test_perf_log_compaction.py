"""Perf bench: the compacted skip log versus the raw tuple-log oracle.

Runs R$BP on the package's compacted log and on the raw oracle
(tests/oracle_skiplog.py) over a three-workload slice at two log
fractions, asserts the compacted path is bit-identical to the raw
reverse scan (per-cluster IPCs and the full cost breakdown), and
writes the retention/walk-step ratios to
``benchmarks/results/perf_log_compaction.txt``.

Headline requirements (asserted): the compacted source cuts peak per-gap
log records by >= 2x across the matrix, and cuts reconstruction log-walk
steps by >= 2x on the full-log (fraction 1.0) cells where the packed
PHT window index is active.
"""

from __future__ import annotations

from conftest import emit
from repro.core import ReverseStateReconstruction
from repro.harness import compaction_stats, format_table
from repro.sampling import SampledSimulator
from repro.telemetry import Telemetry
from repro.workloads import build_workload
from tests.oracle_skiplog import SOURCES

WORKLOADS = ("gcc", "twolf", "mcf")
FRACTIONS = (1.0, 0.4)


def _run_cell(simulator, fraction: float, source: str) -> dict:
    result = simulator.run(
        ReverseStateReconstruction(fraction=fraction,
                                   source=SOURCES[source])
    )
    snapshot = result.extra["telemetry"]
    stats = compaction_stats(snapshot)
    return {
        "source": source,
        "fraction": fraction,
        "cluster_ipcs": result.cluster_ipcs,
        "cost": result.cost.as_dict(),
        "raw_records": stats["raw_records"],
        "dedup_ratio": stats["dedup_ratio"],
        "peak_gap_records": stats["peak_gap_records"],
        "peak_gap_bytes": stats["peak_gap_bytes"],
        "walk_steps":
            snapshot.counters.get("reconstruct.log_walk_steps", 0),
    }


def test_perf_log_compaction(benchmark, scale):
    cells = []
    rows = []
    for workload_name in WORKLOADS:
        workload = build_workload(workload_name, mem_scale=scale.mem_scale)
        simulator = SampledSimulator(
            workload, scale.regimen(), scale.configs(),
            warmup_prefix=scale.warmup_prefix,
            detail_ramp=scale.detail_ramp,
            telemetry=Telemetry,
        )
        for fraction in FRACTIONS:
            pair = {
                source: _run_cell(simulator, fraction, source)
                for source in SOURCES
            }
            raw, compacted = pair["raw"], pair["compacted"]
            # The engine's correctness contract: compaction changes the
            # representation, never the result or its cost accounting.
            assert raw["cluster_ipcs"] == compacted["cluster_ipcs"], (
                f"{workload_name} f={fraction}: per-cluster IPCs diverge "
                "between raw and compacted sources"
            )
            assert raw["cost"] == compacted["cost"], (
                f"{workload_name} f={fraction}: warm-up cost breakdown "
                "diverges between raw and compacted sources"
            )
            for cell in pair.values():
                # Telemetry totals agree with the WarmupCost accounting:
                # observed log records are the same quantity both report.
                assert cell["raw_records"] == cell["cost"]["log_records"], (
                    f"{workload_name} f={fraction} {cell['source']}: "
                    "telemetry log records disagree with WarmupCost"
                )
                cells.append(cell)
            rows.append([
                workload_name, f"{fraction:.0%}",
                f"{raw['peak_gap_records']:,}",
                f"{compacted['peak_gap_records']:,}",
                f"{raw['peak_gap_records'] / compacted['peak_gap_records']:.2f}x",
                f"{compacted['dedup_ratio']:.2f}x",
                f"{raw['walk_steps']:,}",
                f"{compacted['walk_steps']:,}",
            ])

    def ratio(numer: float, denom: float) -> float:
        return numer / denom if denom else float("inf")

    raw_cells = [c for c in cells if c["source"] == "raw"]
    compacted_cells = [c for c in cells if c["source"] == "compacted"]
    # Both sources ran every cell, and no cell ran on a third source.
    assert len(raw_cells) == len(compacted_cells) == \
        len(WORKLOADS) * len(FRACTIONS)
    assert len(cells) == len(raw_cells) + len(compacted_cells)
    peak_ratio = ratio(
        sum(c["peak_gap_records"] for c in raw_cells),
        sum(c["peak_gap_records"] for c in compacted_cells),
    )
    # The packed PHT window index only replaces the log walk when the
    # full log is retained; partial fractions replay the conditional
    # tail verbatim, so the walk comparison is scoped to fraction 1.0.
    walk_ratio = ratio(
        sum(c["walk_steps"] for c in raw_cells if c["fraction"] == 1.0),
        sum(c["walk_steps"] for c in compacted_cells
            if c["fraction"] == 1.0),
    )
    bytes_ratio = ratio(
        sum(c["peak_gap_bytes"] for c in raw_cells),
        sum(c["peak_gap_bytes"] for c in compacted_cells),
    )
    assert peak_ratio >= 2.0, (
        f"peak log-record reduction {peak_ratio:.2f}x below the 2x bar"
    )
    assert walk_ratio >= 2.0, (
        f"log-walk-step reduction {walk_ratio:.2f}x below the 2x bar"
    )

    def render():
        return format_table(
            ["workload", "fraction", "raw peak recs", "compact peak recs",
             "peak ratio", "dedup", "raw walk", "compact walk"],
            rows,
            title=f"Skip-log compaction ({scale.name} tier): "
                  f"peak {peak_ratio:.2f}x ({bytes_ratio:.2f}x bytes), "
                  f"walk {walk_ratio:.2f}x",
        )

    text = benchmark.pedantic(render, rounds=3, iterations=1)
    emit("perf_log_compaction", text)
