"""Perf bench: checkpoint-store warm sweeps vs cold Phase A re-scans.

The store's economy claim, asserted here:

- **Warm sweeps are fast.**  A core-parameter sweep (three
  :class:`~repro.timing.CoreConfig` variants) against a populated
  checkpoint store materialises every run's Phase A from disk, so the
  sweep's wall time must be at least ``SPEEDUP_FLOOR``x faster than the
  identical sweep running its cold scans live (Phase A dominates — the
  cold scan walks the whole population while Phase B touches only the
  sampled clusters).
- **Warm equals cold, bit for bit.**  For every swept config the warm
  run's per-cluster IPCs and complete WarmupCost ledger are identical
  to the cold run's: the stored shards replay their cold-scan cost
  deltas, so a store hit is observationally equivalent to the scan it
  replaced.
- **Streaming equals barrier.**  The pipeline's streaming fold
  (completions folded in arrival order through a pending-heap) produces
  results bit-identical to a barrier fold (a fan-out that delivers no
  result until every task has run).

The table in ``benchmarks/results/checkpoint_store.txt`` shows the
cold, warm and populate wall times.
"""

from __future__ import annotations

import dataclasses
import time

from conftest import emit
from repro.core import ReverseStateReconstruction
from repro.harness import format_table, parallel
from repro.harness.executor import ProcessPool
from repro.sampling import SampledSimulator, SamplingRegimen
from repro.store import STORE_ENV_VAR
from repro.workloads import build_workload

WORKLOAD = "gcc"
CLUSTER_JOBS = 2
#: Hard floor on the warm-sweep wall speedup.
SPEEDUP_FLOOR = 2.0
#: Sampling geometry over the scale tier's population: 16 clusters of
#: 300 instructions is a ~1% detailed fraction, the SMARTS-like regime
#: the store is built for (the bench tier's default 20x1200 samples 5%,
#: which understates how much of a real sweep is Phase A).
NUM_CLUSTERS = 16
CLUSTER_SIZE = 300
REGIMEN_SEED = 17


def _barrier_map(worker, tasks, jobs, *, on_result, **kwargs):
    """A fan-out that delivers no result until every task has run (the
    barrier-equivalent fold)."""
    results = [worker(task) for task in tasks]
    for index, result in enumerate(results):
        on_result(index, result)
    return results


def _core_sweep(base):
    """Three core variants; none touches Phase A's inputs, and each
    binds on the workload (an 8-entry ROB; a narrower issue with a
    longer mispredict penalty)."""
    return [
        base,
        dataclasses.replace(base, rob_entries=8),
        dataclasses.replace(base, issue_width=max(1, base.issue_width - 1),
                            mispredict_penalty=base.mispredict_penalty + 4),
    ]


def _timed_run(workload, scale, regimen, configs):
    simulator = SampledSimulator(
        workload, regimen, configs,
        warmup_prefix=scale.warmup_prefix,
        detail_ramp=scale.detail_ramp,
        cluster_jobs=CLUSTER_JOBS,
    )
    start = time.perf_counter()
    result = simulator.run(ReverseStateReconstruction(fraction=1.0))
    return result, time.perf_counter() - start


def test_checkpoint_store(benchmark, scale, tmp_path, monkeypatch):
    workload = build_workload(WORKLOAD, mem_scale=scale.mem_scale)
    regimen = SamplingRegimen(
        total_instructions=scale.regimen().total_instructions,
        num_clusters=NUM_CLUSTERS, cluster_size=CLUSTER_SIZE,
        seed=REGIMEN_SEED,
    )
    base_configs = scale.configs()
    sweep = [dataclasses.replace(base_configs, core=core)
             for core in _core_sweep(base_configs.core)]
    # In process (a one-worker pool), Phase B pays no process pool's
    # spawn latency on either side of the comparison.
    monkeypatch.setattr(parallel, "ProcessPool",
                        lambda jobs: ProcessPool(1))

    # -- cold sweep: no store, every run pays its own Phase A scan ------
    monkeypatch.delenv(STORE_ENV_VAR, raising=False)
    cold = [_timed_run(workload, scale, regimen, configs)
            for configs in sweep]
    cold_seconds = [seconds for _, seconds in cold]
    base_ipcs = cold[0][0].cluster_ipcs
    assert all(result.cluster_ipcs != base_ipcs for result, _ in cold[1:]), \
        "a swept core config does not bind: its IPCs equal the base core's"

    # -- populate, then the warm sweep off one store directory ----------
    monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "store"))
    populate_result, populate_seconds = _timed_run(workload, scale,
                                                   regimen, sweep[0])
    assert populate_result.extra["checkpoint_store"] == "miss"

    warm = [_timed_run(workload, scale, regimen, configs)
            for configs in sweep]
    warm_seconds = [seconds for _, seconds in warm]

    assert all(result.extra["checkpoint_store"] == "hit"
               for result, _ in warm)
    assert all(
        warm_result.cluster_ipcs == cold_result.cluster_ipcs
        and warm_result.cost.as_dict() == cold_result.cost.as_dict()
        for (warm_result, _), (cold_result, _) in zip(warm, cold)
    ), "a warm-store run diverged from its cold twin"

    speedup = sum(cold_seconds) / sum(warm_seconds)
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm sweep is only {speedup:.2f}x faster than cold "
        f"(floor {SPEEDUP_FLOOR}x)"
    )

    # -- streaming fold == barrier fold on a warm hit -------------------
    with monkeypatch.context() as patch:
        patch.setattr(parallel, "map_tasks", _barrier_map)
        barrier_result, _ = _timed_run(workload, scale, regimen, sweep[0])
    streaming_result = warm[0][0]
    assert barrier_result.extra["checkpoint_store"] == "hit"
    assert (
        barrier_result.cluster_ipcs == streaming_result.cluster_ipcs
        and barrier_result.cost.as_dict() == streaming_result.cost.as_dict()
    ), "barrier-fold results diverged from the streaming fold"

    rows = [
        ["cold sweep (3 configs, live Phase A)",
         f"{sum(cold_seconds):.2f}s", "reference results"],
        ["warm sweep (same 3, store hits)",
         f"{sum(warm_seconds):.2f}s",
         f"{speedup:.2f}x, bit-identical to cold"],
        ["populate (cold + capture)",
         f"{populate_seconds:.2f}s", "one store entry"],
        ["barrier fold on a warm hit", "-",
         "bit-identical to streaming"],
    ]

    def render():
        return format_table(
            ["path", "wall", "guarantee"], rows,
            title=f"Checkpoint store ({scale.name} tier): "
                  f"{len(sweep)}-config core sweep, "
                  f"cluster_jobs={CLUSTER_JOBS}",
        )

    text = benchmark.pedantic(render, rounds=3, iterations=1)
    emit("checkpoint_store", text)
