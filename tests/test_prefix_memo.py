"""The steady-state prefix is computed once per process and restored.

:meth:`~repro.sampling.SimulationStack.warm_prefix` memoizes the state
the prefix leaves on a fresh stack on the workload, one snapshot per
hierarchy config, predictor config and length, and
:func:`~repro.workloads.cached_workload` keeps one workload per name and
memory scale.  A restored stack must be indistinguishable from one that
ran the prefix, and every run after the first must give the results the
first gave.
"""

from __future__ import annotations

import dataclasses
import pickle
import sys
import threading

import pytest

from repro.api import simulate
from repro.branch import PredictorConfig
from repro.cache import paper_hierarchy_config
from repro.harness import SCALES
from repro.sampling import SampledSimulator, build_simulation, measure_true_ipc
from repro.sampling.controller import (
    PREFIX_MEMO_LIMIT, WarmState, steady_state_prefix,
)
from repro.warmup import registered_method_names, resolve_method
from repro.workloads import build_workload, cached_workload
from tests.cache_state import full_state
from tests.oracle_engine import reference_engine, sampled_run_record

CI = SCALES["ci"]


def _memo(workload) -> dict:
    return getattr(workload, "_prefix_memo", {})


def _state(stack) -> dict:
    """Everything the prefix leaves on a stack."""
    machine, hierarchy, predictor = (stack.machine, stack.hierarchy,
                                     stack.predictor)
    return {
        "pc": machine.pc,
        "registers": list(machine.registers),
        "memory": dict(machine.memory._words),
        "retired": machine.instructions_retired,
        "halted": machine.halted,
        "last_fetch": machine._last_fetch,
        "caches": [full_state(cache) for cache in hierarchy.caches()],
        "memory_accesses": hierarchy.memory_accesses,
        "predictor": predictor.export_state(),
        "predictor_counters": (
            predictor.pht.lookups, predictor.pht.updates,
            predictor.btb.lookups, predictor.btb.updates,
            predictor.ras.pushes, predictor.ras.pops),
        "reconstructed": list(predictor.btb.reconstructed),
        "predictor_stats": dataclasses.asdict(predictor.stats),
    }


@pytest.fixture
def spy_restores(monkeypatch):
    """The snapshots restored inside the test, in order."""
    restored = []
    restore = WarmState.restore

    def spy(snapshot, stack):
        restored.append(snapshot)
        restore(snapshot, stack)

    monkeypatch.setattr(WarmState, "restore", spy)
    return restored


class TestRestoredState:
    @pytest.mark.parametrize("name", ("gcc", "mcf", "parser"))
    def test_hit_equals_a_computed_prefix(self, name, spy_restores):
        workload = build_workload(name, mem_scale=CI.mem_scale)
        configs = CI.configs()
        computed = build_simulation(workload, configs)
        steady_state_prefix(computed.machine, computed.hierarchy,
                            computed.predictor, CI.warmup_prefix)
        miss = build_simulation(workload, configs,
                                warmup_prefix=CI.warmup_prefix)
        assert spy_restores == []
        hit = build_simulation(workload, configs,
                               warmup_prefix=CI.warmup_prefix)
        assert len(spy_restores) == 1
        assert hit.machine.memory is not miss.machine.memory
        expected = _state(computed)
        assert expected["last_fetch"][1] >= 0
        assert _state(miss) == expected
        assert _state(hit) == expected


@pytest.mark.parametrize("method_name", registered_method_names())
def test_every_method_identical_on_miss_and_hit(method_name):
    """gcc at ci: the run that computes the prefix and the run that
    restores it give the same IPCs, WarmupCost and final state."""
    workload = build_workload("gcc", mem_scale=CI.mem_scale)
    miss = sampled_run_record(workload, CI, method_name)
    assert len(_memo(workload)) == 1
    hit = sampled_run_record(workload, CI, method_name)
    assert len(_memo(workload)) == 1
    for key in miss:
        assert miss[key] == hit[key], f"{method_name}: {key}"


class TestMemoKey:
    def test_other_hierarchy_predictor_or_length_misses(self):
        workload = build_workload("ammp")
        base = CI.configs()
        other_hierarchy = dataclasses.replace(
            base, hierarchy=paper_hierarchy_config(scale=16))
        other_predictor = dataclasses.replace(
            base, predictor=PredictorConfig(512, 128, 8))
        other_core = dataclasses.replace(
            base, core=dataclasses.replace(base.core, issue_width=2))
        runs = [(base, 2_000), (other_hierarchy, 2_000),
                (other_predictor, 2_000), (base, 3_000), (other_core, 2_000)]
        sizes = []
        for configs, count in runs:
            build_simulation(workload, configs, warmup_prefix=count)
            sizes.append(len(_memo(workload)))
        # The core config does not shape the prefix: the last run hits.
        assert sizes == [1, 2, 3, 4, 4]
        assert set(_memo(workload)) == {
            (base.hierarchy, base.predictor, 2_000),
            (other_hierarchy.hierarchy, base.predictor, 2_000),
            (base.hierarchy, other_predictor.predictor, 2_000),
            (base.hierarchy, base.predictor, 3_000)}

    def test_memo_is_bounded(self):
        workload = build_workload("ammp")
        configs = CI.configs()
        for count in range(1_000, 1_000 + 100 * (PREFIX_MEMO_LIMIT + 2),
                           100):
            build_simulation(workload, configs, warmup_prefix=count)
        assert len(_memo(workload)) == PREFIX_MEMO_LIMIT
        # The oldest went first.
        assert min(key[2] for key in _memo(workload)) == 1_200

    def test_a_stack_that_ran_computes_its_own(self, spy_restores):
        workload = build_workload("ammp")
        configs = CI.configs()
        build_simulation(workload, configs, warmup_prefix=2_000)
        stack = build_simulation(workload, configs)
        stack.machine.run(10)
        stack.warm_prefix(2_000)
        assert spy_restores == []
        assert stack.machine.instructions_retired == 2_010


def test_threads_sharing_one_workload_get_the_computed_prefix():
    """Threads racing on one workload's memo may each compute the
    prefix, but every stack ends up in the computed state."""
    workload = build_workload("twolf")
    configs = CI.configs()
    lengths = (1_500, 2_500)
    expected = {}
    for count in lengths:
        stack = build_simulation(build_workload("twolf"), configs)
        steady_state_prefix(stack.machine, stack.hierarchy, stack.predictor,
                            count)
        expected[count] = _state(stack)
    results, errors = [], []

    def build(index):
        try:
            for step in range(6):
                count = lengths[(index + step) % 2]
                stack = build_simulation(workload, configs,
                                         warmup_prefix=count)
                results.append(_state(stack) == expected[count])
        except Exception as error:  # noqa: BLE001
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(index,))
                   for index in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert results == [True] * 36
    assert set(key[2] for key in _memo(workload)) == set(lengths)


class TestProcessScope:
    def test_pickled_workload_carries_no_memo(self):
        workload = build_workload("gcc", mem_scale=CI.mem_scale)
        build_simulation(workload, CI.configs(),
                         warmup_prefix=CI.warmup_prefix)
        assert len(_memo(workload)) == 1
        blob = pickle.dumps(workload)
        assert b"_prefix_memo" not in blob
        assert b"WarmState" not in blob
        copy = pickle.loads(blob)
        assert _memo(copy) == {}
        assert len(_memo(workload)) == 1
        # The unpickled copy computes its own prefix.
        build_simulation(copy, CI.configs(), warmup_prefix=CI.warmup_prefix)
        assert len(_memo(copy)) == 1

    def test_cached_workload_is_one_object_per_name_and_scale(self):
        first = cached_workload("vpr", mem_scale=1)
        assert cached_workload("vpr", mem_scale=1) is first
        assert cached_workload("vpr", mem_scale=2) is not first
        assert cached_workload("twolf", mem_scale=1) is not first
        assert build_workload("vpr") is not build_workload("vpr")
        assert build_workload("vpr") is not first

    def test_by_name_runs_share_the_workload(self, spy_restores):
        simulate("vortex", "S$BP", "ci")
        workload = cached_workload("vortex", mem_scale=CI.mem_scale)
        assert len(_memo(workload)) == 1
        (snapshot,) = _memo(workload).values()
        simulate("vortex", "R$BP (20%)", "ci")
        assert spy_restores[-1] is snapshot


def test_true_run_and_sampled_run_restore_one_snapshot(spy_restores):
    """The true-IPC baseline and every sampled run start from one
    snapshot, so their "identical prefix" is one object."""
    workload = build_workload("perl", mem_scale=CI.mem_scale)
    configs = CI.configs()
    measure_true_ipc(workload, 5_000, configs,
                     warmup_prefix=CI.warmup_prefix)
    (snapshot,) = _memo(workload).values()
    assert spy_restores == []
    simulator = SampledSimulator(workload, CI.regimen(), configs,
                                 warmup_prefix=CI.warmup_prefix,
                                 detail_ramp=CI.detail_ramp)
    simulator.run(resolve_method("S$BP"))
    measure_true_ipc(workload, 5_000, configs,
                     warmup_prefix=CI.warmup_prefix)
    assert spy_restores == [snapshot, snapshot]


def test_reference_run_leaves_the_memo_empty():
    """The reference engine computes its own prefix and stores none, so
    a production run after it cannot restore the oracle's state."""
    workload = build_workload("gcc", mem_scale=CI.mem_scale)
    with reference_engine():
        sampled_run_record(workload, CI, "S$BP")
    assert _memo(workload) == {}
