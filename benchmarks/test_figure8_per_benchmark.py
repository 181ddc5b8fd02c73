"""Figure 8: Reverse State Reconstruction vs SMARTS, per benchmark.

The per-workload breakdown of the headline comparison: relative error of
R$BP at every fraction against S$BP for each of the nine benchmarks, and
the per-benchmark speedup ratios (paper: max 2.45, average 1.64 on wall
time; we report both the deterministic work metric and wall time).
"""

from conftest import emit
from repro.harness import format_per_workload, format_speedups
from repro.sampling import SampledSimulator
from repro.warmup import resolve_method
from repro.workloads import build_workload

METHODS = ["R$BP (20%)", "R$BP (40%)", "R$BP (80%)", "R$BP (100%)", "S$BP"]


def test_figure8_per_benchmark(benchmark, scale, matrix):
    def representative_run():
        simulator = SampledSimulator(
            build_workload("mcf"), scale.regimen(), scale.configs(),
            warmup_prefix=scale.warmup_prefix,
        )
        return simulator.run(resolve_method("S$BP"))

    benchmark.pedantic(representative_run, rounds=1, iterations=1)

    error_grid = format_per_workload(
        matrix, METHODS, value="error",
        title="Figure 8: relative error by benchmark",
    )
    work_grid = format_per_workload(
        matrix, METHODS, value="work",
        title="Figure 8: simulation work units by benchmark",
    )
    speedups = format_speedups(
        matrix, "R$BP (20%)",
        title="Figure 8: per-benchmark speedup of R$BP (20%) over S$BP",
    )
    emit("figure8_per_benchmark",
         "\n\n".join([error_grid, work_grid, speedups]))

    # Per-benchmark shape: every workload runs cheaper under RSR at 20%.
    for name, experiment in matrix.items():
        assert experiment.speedup("R$BP (20%)") > 1.0, name

    # Work cost rises with the reconstruction fraction on every workload.
    for name, experiment in matrix.items():
        w20 = experiment.outcomes["R$BP (20%)"].work_units
        w100 = experiment.outcomes["R$BP (100%)"].work_units
        assert w20 <= w100, name

    # mcf's sweeping working set has the least redundancy in its skip
    # log: the fraction of logged references that actually change cache
    # state during reconstruction is the highest of all workloads (the
    # mechanism behind the paper's observation that mcf benefits least —
    # in their wall-clock accounting the extra applied updates and
    # buffering erase the win; our logging is relatively cheaper, so the
    # speedup survives, a documented implementation difference).
    def applied_fraction(experiment):
        cost = experiment.outcomes["R$BP (20%)"].run.cost
        return cost.cache_updates / max(1, cost.log_records)

    fractions = {
        name: applied_fraction(experiment)
        for name, experiment in matrix.items()
    }
    assert fractions["mcf"] == max(fractions.values())
