"""Perf bench: checkpoint-store warm sweeps vs cold Phase A re-scans.

Records ``BENCH_pr10.json`` at the repo root for the trajectory gate.
The store's economy claim, made continuously observable:

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

The speedup is gated (higher-is-better); both equalities are never-flip
booleans.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time

from conftest import emit
from repro.core import ReverseStateReconstruction
from repro.harness import format_table, parallel
from repro.harness.executor import ProcessPool
from repro.sampling import SampledSimulator, SamplingRegimen
from repro.store import STORE_ENV_VAR, global_store_stats
from repro.workloads import build_workload

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_pr10.json"
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
    """Three core variants; none touches Phase A's inputs."""
    return [
        base,
        dataclasses.replace(base, rob_entries=base.rob_entries * 2,
                            issue_queue_entries=base.issue_queue_entries * 2),
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

    # -- populate, then the warm sweep off one store directory ----------
    monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "store"))
    populate_result, populate_seconds = _timed_run(workload, scale,
                                                   regimen, sweep[0])
    assert populate_result.extra["checkpoint_store"] == "miss"

    stats_before = global_store_stats().as_dict()
    warm = [_timed_run(workload, scale, regimen, configs)
            for configs in sweep]
    warm_seconds = [seconds for _, seconds in warm]
    store_hits = (global_store_stats().as_dict()["hits"]
                  - stats_before["hits"])

    every_run_hit = all(result.extra["checkpoint_store"] == "hit"
                        for result, _ in warm)
    warm_cold_bit_identical = every_run_hit and all(
        warm_result.cluster_ipcs == cold_result.cluster_ipcs
        and warm_result.cost.as_dict() == cold_result.cost.as_dict()
        for (warm_result, _), (cold_result, _) in zip(warm, cold)
    )
    assert warm_cold_bit_identical, \
        "a warm-store run diverged from its cold twin"

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
    streaming_fold_bit_identical = (
        barrier_result.extra["checkpoint_store"] == "hit"
        and barrier_result.cluster_ipcs == streaming_result.cluster_ipcs
        and barrier_result.cost.as_dict() == streaming_result.cost.as_dict()
    )
    assert streaming_fold_bit_identical, \
        "barrier-fold results diverged from the streaming fold"

    payload = {
        "bench": "checkpoint_store",
        "scale": scale.name,
        "workload": WORKLOAD,
        "core_configs": len(sweep),
        "cluster_jobs": CLUSTER_JOBS,
        "regimen": {
            "total_instructions": regimen.total_instructions,
            "num_clusters": NUM_CLUSTERS,
            "cluster_size": CLUSTER_SIZE,
        },
        "summary": {
            "warm_store_wall_speedup": speedup,
            "warm_cold_bit_identical": warm_cold_bit_identical,
            "streaming_fold_bit_identical": streaming_fold_bit_identical,
        },
        "timing": {
            "cold_sweep_seconds": cold_seconds,
            "populate_seconds": populate_seconds,
            "warm_sweep_seconds": warm_seconds,
        },
        "store": {
            "hits": store_hits,
            "entries": 1,
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")

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
