"""Tests for the grid driver (harness/parallel.py).

The load-bearing property is equivalence with direct runs: every cell
of a grid must equal a :func:`repro.api.simulate` of the same program,
method and scale, scored against :func:`~repro.harness.true_run_for` —
same regimen seed, same cluster IPCs, bit-identical estimates — whether
cells ran in a process pool, in-process (``jobs=1`` or the
``inprocess`` backend), or through one of the graceful fallbacks
(unpicklable factory, pool unavailable).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import simulate
from repro.harness import (
    SCALES,
    CellSpec,
    MethodOutcome,
    ResultCache,
    TrueRunSpec,
    WorkloadExperiment,
    execute_matrix,
    matrix_specs,
    true_run_for,
)
from repro.harness import executor as executor_module
from repro.harness import options as options_module
from repro.harness.parallel import CellProgress
from repro.warmup import resolve_method

CI = SCALES["ci"]
WORKLOADS = ("ammp", "gcc")
METHOD_NAMES = ("None", "S$BP", "R$BP (20%)")


def small_suite():
    """A picklable module-level factory covering all three method families."""
    return [resolve_method(name) for name in METHOD_NAMES]


def assert_grids_identical(expected, actual):
    assert list(expected) == list(actual)
    for workload_name in expected:
        left = expected[workload_name]
        right = actual[workload_name]
        # Every field but the baseline's own wall time, which a spawned
        # pool worker measures anew.
        assert dataclasses.replace(left.true_run, wall_seconds=0.0) \
            == dataclasses.replace(right.true_run, wall_seconds=0.0)
        assert list(left.outcomes) == list(right.outcomes)
        for method_name in left.outcomes:
            a = left.outcomes[method_name]
            b = right.outcomes[method_name]
            assert a.run.cluster_ipcs == b.run.cluster_ipcs
            assert a.run.estimate == b.run.estimate
            assert a.run.regimen == b.run.regimen
            assert a.true_ipc == b.true_ipc
            assert a.relative_error == b.relative_error
            assert a.passes_confidence == b.passes_confidence
            assert a.work_units == b.work_units


@pytest.fixture(scope="module")
def direct_grid():
    """The oracle: one direct ``simulate`` per cell, no grid driver."""
    grid = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("REPRO_CLUSTER_JOBS", raising=False)
        for name in WORKLOADS:
            true_run = true_run_for(name, CI)
            experiment = WorkloadExperiment(workload_name=name,
                                            true_run=true_run)
            for method_name in METHOD_NAMES:
                run = simulate(name, method_name, CI)
                experiment.outcomes[run.method_name] = MethodOutcome(
                    run=run, true_ipc=true_run.ipc)
            grid[name] = experiment
    return grid


class TestEquivalence:
    def test_pool_matches_direct_runs(self, direct_grid):
        parallel_grid = execute_matrix(
            small_suite, workload_names=WORKLOADS, scale=CI, jobs=2,
        )
        assert_grids_identical(direct_grid, parallel_grid)

    def test_jobs_1_runs_in_process_and_matches(self, direct_grid,
                                                monkeypatch):
        def no_pool(*args, **kwargs):  # jobs=1 must never build a pool
            raise AssertionError("ProcessPoolExecutor used with jobs=1")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", no_pool)
        grid = execute_matrix(
            small_suite, workload_names=WORKLOADS, scale=CI, jobs=1,
        )
        assert_grids_identical(direct_grid, grid)

    def test_unpicklable_factory_falls_back_to_serial(self, direct_grid):
        factory = lambda: small_suite()  # noqa: E731 — deliberately unpicklable
        grid = execute_matrix(
            factory, workload_names=WORKLOADS, scale=CI, jobs=2,
        )
        assert_grids_identical(direct_grid, grid)

    def test_pool_unavailable_falls_back_to_serial(self, direct_grid,
                                                   monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no process pools on this platform")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor",
                            broken_pool)
        grid = execute_matrix(
            small_suite, workload_names=WORKLOADS, scale=CI, jobs=4,
        )
        assert_grids_identical(direct_grid, grid)


class TestProgress:
    def test_progress_events_cover_every_task(self):
        events: list[CellProgress] = []
        execute_matrix(
            small_suite, workload_names=WORKLOADS, scale=CI, jobs=1,
            progress=events.append,
        )
        total = len(WORKLOADS) * (1 + len(METHOD_NAMES))
        assert len(events) == total
        assert [event.completed for event in events] == \
            list(range(1, total + 1))
        assert all(event.total == total for event in events)
        assert sum(event.kind == "true" for event in events) == len(WORKLOADS)
        cell_events = [event for event in events if event.kind == "cell"]
        assert {event.method_name for event in cell_events} == \
            set(METHOD_NAMES)
        assert all(event.cost is not None for event in cell_events)
        assert not any(event.cached for event in events)
        assert all("x" in event.describe() for event in cell_events)

    def test_cached_events_flagged(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        execute_matrix(
            small_suite, workload_names=("ammp",), scale=CI, jobs=1,
            cache=cache,
        )
        events: list[CellProgress] = []
        execute_matrix(
            small_suite, workload_names=("ammp",), scale=CI, jobs=1,
            cache=cache, progress=events.append,
        )
        assert events and all(event.cached for event in events)
        assert all(event.wall_seconds == 0.0 for event in events)
        assert all("cache" in event.describe() for event in events)


class TestCachedExecution:
    def test_second_run_is_pure_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = execute_matrix(
            small_suite, workload_names=("ammp",), scale=CI, jobs=1,
            cache=cache,
        )
        tasks = 1 + len(METHOD_NAMES)
        assert cache.stats.misses == tasks
        assert cache.stats.writes == tasks
        warm = execute_matrix(
            small_suite, workload_names=("ammp",), scale=CI, jobs=1,
            cache=cache,
        )
        assert cache.stats.hits == tasks
        assert_grids_identical(cold, warm)

    def test_scale_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        execute_matrix(
            small_suite, workload_names=("ammp",), scale=CI, jobs=1,
            cache=cache,
        )
        other = SCALES["ci"].__class__(
            "ci-reseeded", CI.total_instructions, CI.num_clusters,
            CI.cluster_size, seed=CI.seed + 1,
            warmup_prefix=CI.warmup_prefix,
        )
        hits_before = cache.stats.hits
        execute_matrix(
            small_suite, workload_names=("ammp",), scale=other, jobs=1,
            cache=cache,
        )
        # Every cell key differs; the true run reads neither the seed
        # nor the scale's name, so its one entry is shared.
        assert cache.stats.hits == hits_before + 1

    def test_program_length_change_invalidates_the_true_run(self,
                                                            tmp_path):
        cache = ResultCache(tmp_path / "cache")
        execute_matrix(
            small_suite, workload_names=("ammp",), scale=CI, jobs=1,
            cache=cache,
        )
        longer = dataclasses.replace(
            CI, total_instructions=CI.total_instructions + 8_000)
        hits_before = cache.stats.hits
        execute_matrix(
            small_suite, workload_names=("ammp",), scale=longer, jobs=1,
            cache=cache,
        )
        assert cache.stats.hits == hits_before  # every key differs


class TestSeedAxis:
    """Placement is ``ExperimentScale.seed``: cells follow it, true
    runs do not."""

    OTHER = dataclasses.replace(CI, seed=CI.seed + 1)

    def test_two_seeds_make_two_cell_keys_and_one_true_run_key(self):
        configs = CI.configs()
        cells = {CellSpec("ammp", "S$BP", scale, configs).key()
                 for scale in (CI, self.OTHER)}
        trues = {TrueRunSpec.of("ammp", scale, configs).key()
                 for scale in (CI, self.OTHER)}
        assert len(cells) == 2
        assert len(trues) == 1

    def test_true_run_ignores_everything_it_does_not_read(self):
        configs = CI.configs()
        moved = dataclasses.replace(CI, name="moved", seed=1,
                                    num_clusters=CI.num_clusters + 2,
                                    cluster_size=CI.cluster_size * 2,
                                    detail_ramp=CI.detail_ramp + 1)
        assert TrueRunSpec.of("ammp", moved, configs) == \
            TrueRunSpec.of("ammp", CI, configs)
        for field, value in (("total_instructions", 168_000),
                             ("warmup_prefix", 24_000),
                             ("mem_scale", 2)):
            changed = dataclasses.replace(CI, **{field: value})
            assert TrueRunSpec.of("ammp", changed, configs).key() != \
                TrueRunSpec.of("ammp", CI, configs).key(), field

    def test_true_run_for_shares_one_object_across_seeds(self):
        assert true_run_for("ammp", self.OTHER) is true_run_for("ammp", CI)

    def test_second_seed_reads_its_true_runs_from_the_store(self,
                                                            tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = execute_matrix(
            small_suite, workload_names=WORKLOADS, scale=CI, jobs=1,
            cache=cache,
        )
        events: list[CellProgress] = []
        second = execute_matrix(
            small_suite, workload_names=WORKLOADS, scale=self.OTHER,
            jobs=1, cache=cache, progress=events.append,
        )
        true_events = [event for event in events if event.kind == "true"]
        assert len(true_events) == len(WORKLOADS)
        assert all(event.cached for event in true_events)
        assert not any(event.cached for event in events
                       if event.kind == "cell")
        for name in WORKLOADS:
            assert second[name].true_run == first[name].true_run
            assert second[name].outcomes["S$BP"].run.cluster_ipcs != \
                first[name].outcomes["S$BP"].run.cluster_ipcs


class TestClusterJobsResolution:
    def test_zero_and_explicit_cpu_count_make_the_same_cell_keys(
            self, tmp_path, monkeypatch):
        # 0 means one shard worker per CPU; with two CPUs the cells run
        # sharded, so their keys must be the sharded ones.
        monkeypatch.setattr(options_module, "available_cpus", lambda: 2)
        cache = ResultCache(tmp_path / "cache")
        suite = lambda: [resolve_method("R$BP (20%)")]  # noqa: E731
        zero = execute_matrix(suite, workload_names=("gcc",), scale=CI,
                              jobs=1, cache=cache, cluster_jobs=0)
        assert zero["gcc"].outcomes["R$BP (20%)"].run.extra["sharded"]
        events: list[CellProgress] = []
        execute_matrix(suite, workload_names=("gcc",), scale=CI, jobs=1,
                       cache=cache, cluster_jobs=2,
                       progress=events.append)
        assert events and all(event.cached for event in events)

    def test_only_shardable_cells_key_on_cluster_jobs(self):
        # S$BP warms across cluster boundaries and runs the serial walk
        # at any cluster-job count, so a sharded grid shares its cells
        # with the serial one; R$BP shards, so its cells differ.
        methods = [resolve_method("S$BP"), resolve_method("R$BP (20%)")]
        configs = CI.configs()

        def keys(cluster_jobs):
            return {spec.method_name: spec.key()
                    for spec in matrix_specs(methods, ("ammp",), CI, configs,
                                             cluster_jobs=cluster_jobs)
                    if spec.kind == "cell"}

        serial, sharded = keys(1), keys(2)
        assert serial["S$BP"] == sharded["S$BP"]
        assert serial["R$BP (20%)"] != sharded["R$BP (20%)"]

    def test_sharded_grid_reads_serial_cells_of_unshardable_methods(
            self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        suite = lambda: [resolve_method("S$BP")]  # noqa: E731
        serial = execute_matrix(suite, workload_names=("ammp",), scale=CI,
                                jobs=1, cache=cache)
        events: list[CellProgress] = []
        sharded = execute_matrix(suite, workload_names=("ammp",), scale=CI,
                                 jobs=1, cache=cache, cluster_jobs=2,
                                 progress=events.append)
        assert events and all(event.cached for event in events)
        assert sharded["ammp"].outcomes["S$BP"].run.cluster_ipcs == \
            serial["ammp"].outcomes["S$BP"].run.cluster_ipcs
