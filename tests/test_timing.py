"""Unit tests for the detailed timing simulator.

These validate the *mechanisms* (dependences, bandwidth, cache latency,
branch prediction) through their effect on IPC, since absolute cycle
counts are a modelling choice.
"""

import pytest

from repro.branch import BranchPredictor, PredictorConfig
from repro.cache import MemoryHierarchy, paper_hierarchy_config
from repro.functional import FunctionalMachine
from repro.isa import ProgramBuilder
from repro.timing import CoreConfig, TimingSimulator


def build_simulator(emit, core_config=None):
    builder = ProgramBuilder()
    emit(builder)
    machine = FunctionalMachine(builder.build())
    hierarchy = MemoryHierarchy(paper_hierarchy_config(scale=16))
    predictor = BranchPredictor(PredictorConfig(
        pht_entries=1024, btb_entries=256, ras_entries=8,
    ))
    return TimingSimulator(machine, hierarchy, predictor, core_config)


def independent_alu_loop(b):
    b.label("top")
    for reg in range(1, 9):
        b.addi(reg, reg, 1)
    b.jmp("top")


def dependent_chain_loop(b):
    b.label("top")
    for _ in range(8):
        b.addi(1, 1, 1)
    b.jmp("top")


class TestThroughput:
    def test_ipc_never_exceeds_retire_width(self):
        sim = build_simulator(independent_alu_loop)
        result = sim.run(5000)
        assert result.ipc <= sim.config.retire_width

    def test_independent_ops_reach_superscalar_ipc(self):
        sim = build_simulator(independent_alu_loop)
        result = sim.run(5000)
        assert result.ipc > 1.5

    def test_dependent_chain_limits_ipc(self):
        independent = build_simulator(independent_alu_loop).run(5000)
        dependent = build_simulator(dependent_chain_loop).run(5000)
        assert dependent.ipc < independent.ipc

    def test_result_counts_instructions(self):
        sim = build_simulator(independent_alu_loop)
        result = sim.run(1234)
        assert result.instructions == 1234

    def test_zero_cycles_guard(self):
        sim = build_simulator(independent_alu_loop)
        result = sim.run(0)
        assert result.ipc == 0.0


class TestMemoryEffects:
    def _load_loop(self, stride):
        def emit(b):
            b.li(1, 0x100000)
            b.label("top")
            b.load(2, 1, 0)
            b.addi(1, 1, stride)
            b.jmp("top")
        return emit

    def test_cache_misses_lower_ipc(self):
        hits = build_simulator(self._load_loop(0)).run(3000)
        misses = build_simulator(self._load_loop(4096)).run(3000)
        assert misses.ipc < hits.ipc * 0.7

    def test_dependent_loads_slower_than_independent(self):
        # Dependent: each load's address register is its own destination,
        # so every load waits for the previous one (memory reads zero, so
        # the address settles on 0 and the loads all hit — the difference
        # is purely the dependence).
        def dependent(b):
            b.label("top")
            b.load(1, 1, 0)
            b.jmp("top")

        def independent(b):
            b.label("top")
            b.load(2, 1, 0)
            b.jmp("top")

        dep = build_simulator(dependent).run(2000)
        ind = build_simulator(independent).run(2000)
        assert dep.ipc < ind.ipc


class TestBranchEffects:
    def _branchy(self, period):
        def emit(b):
            b.li(3, period)
            b.add(4, 0, 0)
            b.label("top")
            b.addi(4, 4, 1)
            b.blt(4, 3, "skip")
            b.add(4, 0, 0)
            b.label("skip")
            b.addi(5, 5, 1)
            b.jmp("top")
        return emit

    def _random_branch(self, threshold):
        # LCG-driven data-dependent branch with taken bias threshold/256.
        def emit(b):
            b.li(6, 12345)
            b.label("top")
            b.li(8, 6364136223846793005)
            b.mul(6, 6, 8)
            b.li(8, 1442695040888963407)
            b.add(6, 6, 8)
            b.srli(7, 6, 33)
            b.andi(7, 7, 255)
            b.li(8, threshold)
            b.blt(7, 8, "taken")
            b.addi(1, 1, 1)
            b.jmp("top")
            b.label("taken")
            b.addi(2, 2, 1)
            b.jmp("top")
        return emit

    def test_random_branches_slower_than_biased(self):
        biased = build_simulator(self._random_branch(0))
        random = build_simulator(self._random_branch(128))
        biased_result = biased.run(5000)
        random_result = random.run(5000)
        def misprediction_rate(simulator):
            stats = simulator.predictor.stats
            return stats.mispredictions / stats.conditional_branches

        assert misprediction_rate(random) > misprediction_rate(biased) + 0.2
        assert random_result.ipc < biased_result.ipc

    def test_mispredict_penalty_configurable(self):
        harsh = CoreConfig(mispredict_penalty=40)
        mild = CoreConfig(mispredict_penalty=0)
        slow = build_simulator(self._branchy(3), harsh).run(4000)
        fast = build_simulator(self._branchy(3), mild).run(4000)
        assert slow.ipc < fast.ipc


class TestResourceLimits:
    def test_tiny_rob_throttles(self):
        big = build_simulator(independent_alu_loop,
                              CoreConfig(rob_entries=64)).run(4000)
        tiny = build_simulator(independent_alu_loop,
                               CoreConfig(rob_entries=4)).run(4000)
        assert tiny.ipc <= big.ipc

    def test_narrow_issue_throttles(self):
        wide = build_simulator(independent_alu_loop,
                               CoreConfig(issue_width=4)).run(4000)
        narrow = build_simulator(independent_alu_loop,
                                 CoreConfig(issue_width=1)).run(4000)
        assert narrow.ipc < wide.ipc

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CoreConfig(fetch_width=0)
        with pytest.raises(ValueError):
            CoreConfig(mispredict_penalty=-1)
        with pytest.raises(ValueError):
            CoreConfig(frontend_depth=9, pipeline_depth=7)


class TestDeterminismAndState:
    def test_repeatable_runs(self):
        a = build_simulator(independent_alu_loop).run(3000)
        b = build_simulator(independent_alu_loop).run(3000)
        assert a.cycles == b.cycles

    def test_halt_stops_early(self):
        def emit(b):
            b.addi(1, 1, 1)
            b.halt()
        sim = build_simulator(emit)
        result = sim.run(100)
        assert result.instructions == 2

    def test_cache_state_persists_across_runs(self):
        def loads(b):
            b.li(1, 0x100000)
            b.label("top")
            b.load(2, 1, 0)
            b.jmp("top")
        sim = build_simulator(loads)
        cold = sim.run(500)
        warm = sim.run(500)
        assert warm.cycles <= cold.cycles
