"""Figure 6: branch-predictor warm-up only.

Reverse branch-predictor reconstruction (RBP) versus SMARTS BP warming
(SBP), with caches left stale in both.  Expected shape (paper): the two
achieve nearly identical relative error — both much worse than cache
warm-up, because stale caches dominate non-sampling bias — while RBP
applies far fewer predictor updates.
"""

from conftest import emit
from repro.harness import (
    average_over_workloads,
    format_method_summary,
    format_per_workload,
    format_speedups,
)
from repro.sampling import SampledSimulator
from repro.warmup import resolve_method
from repro.workloads import build_workload

METHODS = ["RBP", "SBP"]


def test_figure6_bp_only(benchmark, scale, matrix):
    def representative_run():
        simulator = SampledSimulator(
            build_workload("gcc"), scale.regimen(), scale.configs(),
            warmup_prefix=scale.warmup_prefix,
        )
        return simulator.run(resolve_method("RBP"))

    benchmark.pedantic(representative_run, rounds=1, iterations=1)

    summary = format_method_summary(
        matrix, METHODS, "Figure 6: branch-predictor warm-up only (averages)",
    )
    grid = format_per_workload(
        matrix, METHODS, value="error",
        title="Figure 6: relative error per workload",
    )
    speedups = format_speedups(
        matrix, "RBP", baseline="SBP",
        title="Figure 6: RBP speedup over SBP",
    )
    emit("figure6_bp_only", "\n\n".join([summary, grid, speedups]))

    rbp_error, rbp_work, _ = average_over_workloads(matrix, "RBP")
    sbp_error, sbp_work, _ = average_over_workloads(matrix, "SBP")

    # RBP approximates SBP accuracy (paper: 22.3% vs 22.2%).
    assert abs(rbp_error - sbp_error) < 0.05
    # ... at lower work (paper: average speedup 1.48).
    assert rbp_work < sbp_work

    # Warming the BP alone leaves most of the error (stale caches): both
    # must be far worse than full warming.
    full_error, _w, _t = average_over_workloads(matrix, "S$BP")
    assert rbp_error > 2 * full_error

    # Update savings: reconstruction writes a fraction of the predictor
    # updates SMARTS applies.
    sbp_updates = sum(
        e.outcomes["SBP"].run.cost.predictor_updates
        for e in matrix.values()
    )
    rbp_updates = sum(
        e.outcomes["RBP"].run.cost.predictor_updates
        for e in matrix.values()
    )
    assert rbp_updates < sbp_updates / 3
