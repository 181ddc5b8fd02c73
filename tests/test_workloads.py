"""Unit tests for the synthetic workload generators."""

import pytest

from repro.branch import BranchPredictor, PredictorConfig
from repro.cache import MemoryHierarchy, paper_hierarchy_config
from repro.workloads import (
    PAPER_WORKLOADS,
    available_workloads,
    build_workload,
    init_pointer_chain,
    init_jump_table,
    round_up_power_of_two,
)
from repro.functional import Memory

import numpy as np


class TestRegistry:
    def test_nine_paper_workloads(self):
        assert len(PAPER_WORKLOADS) == 9
        assert set(PAPER_WORKLOADS) == {
            "ammp", "art", "gcc", "mcf", "parser", "perl", "twolf",
            "vortex", "vpr",
        }

    def test_available_matches_paper_order(self):
        assert available_workloads() == PAPER_WORKLOADS

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            build_workload("quake")

    def test_custom_seed(self):
        a = build_workload("vpr", seed=1)
        b = build_workload("vpr", seed=2)
        machine_a, machine_b = a.make_machine(), b.make_machine()
        machine_a.run(5000)
        machine_b.run(5000)
        assert machine_a.registers != machine_b.registers


@pytest.mark.parametrize("name", PAPER_WORKLOADS)
class TestEveryWorkload:
    def test_builds_and_runs(self, name):
        workload = build_workload(name)
        machine = workload.make_machine()
        executed = machine.run(20_000)
        assert executed == 20_000
        assert not machine.halted

    def test_deterministic(self, name):
        a = build_workload(name).make_machine()
        b = build_workload(name).make_machine()
        a.run(10_000)
        b.run(10_000)
        assert a.pc == b.pc
        assert a.registers == b.registers

    def test_machines_are_isolated(self, name):
        workload = build_workload(name)
        first = workload.make_machine()
        first.run(10_000)
        second = workload.make_machine()
        second.run(10_000)
        assert first.registers == second.registers

    def test_has_memory_and_branch_activity(self, name):
        workload = build_workload(name)
        machine = workload.make_machine()
        counts = {"mem": 0, "branch": 0}

        machine.run(
            10_000,
            mem_hook=lambda *a: counts.__setitem__(
                "mem", counts["mem"] + 1),
            branch_hook=lambda *a: counts.__setitem__(
                "branch", counts["branch"] + 1),
        )
        assert counts["mem"] > 100, "workload must exercise the caches"
        assert counts["branch"] > 100, "workload must exercise the predictor"

    def test_repr(self, name):
        assert name in repr(build_workload(name))


class TestWorkloadCharacters:
    """The per-benchmark characters the experiments rely on."""

    def _miss_rate(self, name, count=40_000):
        workload = build_workload(name)
        machine = workload.make_machine()
        hierarchy = MemoryHierarchy(paper_hierarchy_config(scale=16))
        machine.run(
            count,
            mem_hook=lambda pc, np_, a, w: hierarchy.warm_access(a, w, False),
        )
        stats = hierarchy.l1d.stats
        return stats.misses / stats.accesses

    def _mispredict_rate(self, name, count=40_000):
        workload = build_workload(name)
        machine = workload.make_machine()
        predictor = BranchPredictor(PredictorConfig(4096, 1024, 8))
        machine.run(
            count,
            branch_hook=lambda pc, np_, inst, taken:
                predictor.predict_and_update(pc, inst, taken, np_),
        )
        stats = predictor.stats
        return stats.mispredictions / stats.conditional_branches

    def test_mcf_is_cache_hostile(self):
        assert self._miss_rate("mcf") > 2 * self._miss_rate("ammp")

    def test_art_branches_predictable(self):
        assert self._mispredict_rate("art") < 0.06

    def test_parser_branches_hard(self):
        assert self._mispredict_rate("parser") > \
            self._mispredict_rate("art")

    def test_gcc_code_footprint_large(self):
        gcc = build_workload("gcc")
        assert len(gcc.program) > 1000
        small = build_workload("mcf")
        assert len(gcc.program) > 5 * len(small.program)

    def test_vortex_is_store_rich(self):
        workload = build_workload("vortex")
        machine = workload.make_machine()
        stores = [0]
        machine.run(
            20_000,
            mem_hook=lambda pc, np_, a, w: stores.__setitem__(
                0, stores[0] + int(w)),
        )
        assert stores[0] > 500


class TestMemoryInit:
    def test_pointer_chain_is_a_cycle(self):
        memory = Memory()
        rng = np.random.default_rng(0)
        head = init_pointer_chain(memory, 0x1000, 64, rng)
        seen = set()
        node = head
        for _ in range(64):
            assert node not in seen
            seen.add(node)
            node = memory.load(node)
        assert node == head
        assert len(seen) == 64

    def test_pointer_chain_needs_two_nodes(self):
        with pytest.raises(ValueError):
            init_pointer_chain(Memory(), 0, 1, np.random.default_rng(0))

    def test_jump_table(self):
        memory = Memory()
        init_jump_table(memory, 0x2000, [5, 9, 13])
        assert memory.load(0x2000) == 5
        assert memory.load(0x2010) == 13

    def test_round_up_power_of_two(self):
        assert round_up_power_of_two(1) == 1
        assert round_up_power_of_two(3) == 4
        assert round_up_power_of_two(64) == 64
        assert round_up_power_of_two(65) == 128

    def test_mem_scale_grows_footprint(self):
        small = build_workload("mcf", mem_scale=1)
        large = build_workload("mcf", mem_scale=2)
        assert large.memory.footprint_words() > \
            1.5 * small.memory.footprint_words()
