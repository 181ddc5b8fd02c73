"""Functional warming against the reference engine.

``Cache.access`` and ``BranchPredictor.update`` are the primitives every
warm-up method's skip, the steady-state prefix and the hot core share.
Their straightforward versions are the reference engine's
(tests/oracle_engine.py): an ``enumerate`` scan that allocates a result
per access, the hierarchy's access paths over it, and a call chain
through per-structure training methods.
These tests drive both with the same random streams and require the
same results and the same state after every operation, then check the
warm-up methods built on them end to end.
"""

from __future__ import annotations

import dataclasses
import functools
import random
import types

import pytest

from repro.branch import BranchPredictor, PredictorConfig
from repro.cache import (
    Cache,
    CacheConfig,
    MemoryHierarchy,
    WritePolicy,
    paper_hierarchy_config,
)
from repro.cache.cache import HIT, MISS
from repro.harness import scale_from_env
from repro.isa import Instruction, Opcode
from repro.sampling import SampledSimulator
from repro.telemetry import Telemetry
from repro.warmup import BLRLWarmup, MRRLWarmup, resolve_method
from repro.workloads import build_workload
from tests.oracle_engine import (
    chained_predictor_update,
    reference_cache_access,
    reference_engine,
    reference_timed_access,
    reference_warm_access,
    sampled_run_record,
)

LINE = 64
OPERATIONS = 1500


def _cache_state(cache: Cache) -> tuple:
    return (vars(cache.stats), list(cache.tags),
            bytes(cache.dirty_bits), bytes(cache.recon_bits),
            list(cache.recon_count), [list(row) for row in cache.order])


def _access_code(result) -> int:
    """The ``Cache.access`` return value a reference result stands for."""
    if result.hit:
        return HIT
    if result.writeback_address is None:
        return MISS
    return result.writeback_address


class TestCacheAccessFuzz:
    @pytest.mark.parametrize("associativity", (1, 2, 4, 8))
    @pytest.mark.parametrize("num_sets", (8, 6), ids=("pow2", "non-pow2"))
    @pytest.mark.parametrize("policy", tuple(WritePolicy),
                             ids=lambda policy: policy.name)
    def test_matches_reference(self, policy, num_sets, associativity):
        config = CacheConfig("fuzz", num_sets * associativity * LINE, LINE,
                             associativity, policy, 1)
        production, reference = Cache(config), Cache(config)
        rng = random.Random(f"{policy.name}/{num_sets}/{associativity}")
        # Three times the capacity in lines, so hits, clean and dirty
        # evictions and fills into invalid ways all occur.
        lines = 3 * num_sets * associativity
        snapshot = None
        for step in range(OPERATIONS):
            if step == OPERATIONS // 3:
                snapshot = production.export_state()
            elif step == OPERATIONS // 2:
                production.reset()
                reference.reset()
            elif step == 2 * OPERATIONS // 3:
                production.load_state(snapshot)
                reference.load_state(snapshot)
            address = rng.randrange(lines) * LINE + rng.randrange(LINE)
            is_write = rng.random() < 0.4
            got = production.access(address, is_write)
            want = reference_cache_access(reference, address, is_write)
            assert got == _access_code(want), \
                f"step {step}: access({address:#x}, {is_write})"
            assert _cache_state(production) == _cache_state(reference), \
                f"step {step}: access({address:#x}, {is_write})"


def _hierarchy_config(l1_policy: WritePolicy, num_sets: int):
    """Two-way L1s of `num_sets` sets over a four-way WBWA L2 of twice
    as many, small enough that every access path occurs often."""
    def cache(name, sets, associativity, policy, latency):
        return CacheConfig(name, sets * associativity * LINE, LINE,
                           associativity, policy, latency)

    return dataclasses.replace(
        paper_hierarchy_config(),
        l1i=cache("L1I", num_sets, 2, l1_policy, 1),
        l1d=cache("L1D", num_sets, 2, l1_policy, 1),
        l2=cache("L2", 2 * num_sets, 4, WritePolicy.WBWA, 8))


def _hierarchy_state(hierarchy: MemoryHierarchy) -> tuple:
    return ([_cache_state(cache) for cache in hierarchy.caches()],
            vars(hierarchy.l1_bus), vars(hierarchy.l2_bus),
            hierarchy.memory_accesses)


def _both(production, reference, warm, address, is_write,
          is_instruction=False, now=0):
    """One access on each hierarchy; the latencies (None when `warm`)."""
    if warm:
        return (production.warm_access(address, is_write, is_instruction),
                reference_warm_access(reference, address, is_write,
                                      is_instruction))
    return (production.timed_access(address, is_write, is_instruction, now),
            reference_timed_access(reference, address, is_write,
                                   is_instruction, now))


class TestHierarchyFuzz:
    """``timed_access`` and ``warm_access`` against the reference
    engine's twins: latency, buses, memory accesses and every cache's
    state and stats after every access."""

    @pytest.mark.parametrize("num_sets", (4, 6), ids=("pow2", "non-pow2"))
    @pytest.mark.parametrize("l1_policy", tuple(WritePolicy),
                             ids=lambda policy: policy.name)
    def test_matches_reference(self, l1_policy, num_sets):
        config = _hierarchy_config(l1_policy, num_sets)
        production, reference = MemoryHierarchy(config), \
            MemoryHierarchy(config)
        rng = random.Random(f"{l1_policy.name}/{num_sets}")
        lines = 3 * config.l2.size_bytes // LINE
        now = 0
        for step in range(OPERATIONS):
            address = rng.randrange(lines) * LINE + rng.randrange(0, LINE, 8)
            is_instruction = rng.random() < 0.25
            is_write = not is_instruction and rng.random() < 0.4
            warm = rng.random() < 0.5
            now += rng.randrange(4)
            got, want = _both(production, reference, warm, address,
                              is_write, is_instruction, now)
            assert got == want, f"step {step}: {address:#x}"
            assert _hierarchy_state(production) \
                == _hierarchy_state(reference), \
                f"step {step}: {address:#x} write={is_write} " \
                f"instruction={is_instruction} warm={warm}"

    @pytest.mark.parametrize("warm", (False, True), ids=("timed", "warm"))
    @pytest.mark.parametrize("num_sets", (4, 6), ids=("pow2", "non-pow2"))
    def test_dirty_l1_victim_at_address_zero(self, num_sets, warm):
        """A WBWA L1's dirty line 0 is written back to L2 when evicted."""
        config = _hierarchy_config(WritePolicy.WBWA, num_sets)
        production, reference = MemoryHierarchy(config), \
            MemoryHierarchy(config)
        stride = num_sets * LINE  # the next line of L1 set 0
        for address, is_write in ((0, True), (stride, False),
                                  (2 * stride, False)):
            got, want = _both(production, reference, warm, address,
                              is_write)
            assert got == want
            assert _hierarchy_state(production) \
                == _hierarchy_state(reference)
        l1d, l2 = production.l1d.stats, production.l2.stats
        assert l1d.writebacks == 1
        # Three fills, then the write-back of line 0, which hits.
        assert (l2.accesses, l2.hits) == (4, 1)

    @pytest.mark.parametrize("num_sets", (4, 6), ids=("pow2", "non-pow2"))
    def test_dirty_l2_victim_at_address_zero(self, num_sets):
        """The L2's dirty line 0 drains across the L2 bus when evicted."""
        config = _hierarchy_config(WritePolicy.WTNA, num_sets)
        production, reference = MemoryHierarchy(config), \
            MemoryHierarchy(config)
        stride = 2 * num_sets * LINE  # the next line of L2 set 0
        accesses = [(0, True)] + [(k * stride, False) for k in range(1, 5)]
        for step, (address, is_write) in enumerate(accesses):
            got, want = _both(production, reference, False, address,
                              is_write, now=1000 * step)
            assert got == want
            assert _hierarchy_state(production) \
                == _hierarchy_state(reference)
        assert production.l2.stats.writebacks == 1
        # Five line fills from memory and the write-back of line 0.
        assert production.l2_bus.transfers == 6


class TestWarmAccessFuzz:
    @pytest.mark.parametrize("l1_policy", tuple(WritePolicy),
                             ids=lambda policy: policy.name)
    def test_matches_timed_access(self, l1_policy):
        """Warming changes the hierarchy exactly as detailed simulation
        does: write-through, allocation and dirty-victim paths alike."""
        config = paper_hierarchy_config(scale=64)
        config = dataclasses.replace(
            config,
            l1i=dataclasses.replace(config.l1i, write_policy=l1_policy),
            l1d=dataclasses.replace(config.l1d, write_policy=l1_policy))
        warmed, timed = MemoryHierarchy(config), MemoryHierarchy(config)
        rng = random.Random(l1_policy.name)
        lines = 3 * config.l2.size_bytes // LINE
        for step in range(OPERATIONS):
            address = rng.randrange(lines) * LINE
            is_instruction = rng.random() < 0.3
            is_write = not is_instruction and rng.random() < 0.4
            warmed.warm_access(address, is_write, is_instruction)
            timed.timed_access(address, is_write, is_instruction, 10 * step)
            assert [_cache_state(cache) for cache in warmed.caches()] \
                == [_cache_state(cache) for cache in timed.caches()], \
                f"step {step}: {address:#x} write={is_write} " \
                f"instruction={is_instruction}"


CONTROL = {
    "cond": Instruction(Opcode.BNE, rs1=1, rs2=2, target=0),
    "jump": Instruction(Opcode.JMP, target=0),
    "indirect": Instruction(Opcode.JR, rs1=1),
    "call": Instruction(Opcode.CALL, target=0),
    "indirect-call": Instruction(Opcode.CALLR, rs1=1),
    "ret": Instruction(Opcode.RET),
}


def _predictor_state(predictor: BranchPredictor) -> tuple:
    pht, btb, ras = predictor.pht, predictor.btb, predictor.ras
    return (predictor.export_state(), vars(predictor.stats),
            pht.lookups, pht.updates, btb.lookups, btb.updates,
            ras.pushes, ras.pops)


class TestPredictorUpdateFuzz:
    @pytest.mark.parametrize(
        "entries", ((64, 16, 4), (256, 64, 8), (16, 4, 1)),
        ids=lambda entries: "/".join(map(str, entries)))
    def test_matches_reference(self, entries):
        config = PredictorConfig(*entries)
        production, reference = BranchPredictor(config), \
            BranchPredictor(config)
        # predict_and_update trains through self.update: the instance
        # attribute routes the reference's through the call chain.
        reference.update = types.MethodType(chained_predictor_update,
                                            reference)
        rng = random.Random("/".join(map(str, entries)))
        kinds = sorted(CONTROL)
        snapshot = None
        for step in range(3 * OPERATIONS):
            if step == OPERATIONS:
                snapshot = production.export_state()
            elif step == 3 * OPERATIONS // 2:
                production.reset()
                reference.reset()
            elif step == 2 * OPERATIONS:
                production.load_state(snapshot)
                reference.load_state(snapshot)
            kind = rng.choice(kinds)
            inst = CONTROL[kind]
            pc = rng.randrange(300)
            taken = rng.random() < 0.6 if kind == "cond" else True
            next_pc = rng.randrange(300) if taken else pc + 1
            if rng.random() < 0.5:
                got = production.predict_and_update(pc, inst, taken, next_pc)
                want = reference.predict_and_update(pc, inst, taken, next_pc)
                assert got == want, f"step {step}: {kind} at {pc}"
            else:
                production.update(pc, inst, taken, next_pc)
                reference.update(pc, inst, taken, next_pc)
            assert _predictor_state(production) \
                == _predictor_state(reference), f"step {step}: {kind} at {pc}"

    def test_clears_keep_list_identity(self):
        predictor = BranchPredictor(PredictorConfig(64, 16, 4))
        pht, btb = predictor.pht, predictor.btb
        lists = (pht.counters, pht.reconstructed, btb.tags, btb.targets,
                 btb.reconstructed)
        pht.reconstructed[3] = btb.reconstructed[5] = True
        predictor.update(7, CONTROL["jump"], True, 40)
        predictor.clear_reconstructed()
        assert not any(pht.reconstructed) and not any(btb.reconstructed)
        predictor.reset()
        assert btb.tags == [None] * 16 and btb.targets == [0] * 16
        for before, after in zip(lists, (pht.counters, pht.reconstructed,
                                         btb.tags, btb.targets,
                                         btb.reconstructed)):
            assert before is after


#: Every functional-warming method: the six registered ones and the
#: two profile-driven baselines.
WARMING = {
    **{name: functools.partial(resolve_method, name)
       for name in ("FP (20%)", "FP (40%)", "FP (80%)", "S$", "SBP",
                    "S$BP")},
    "MRRL": MRRLWarmup,
    "BLRL": BLRLWarmup,
}


@pytest.fixture(scope="module")
def gcc():
    scale = scale_from_env(default="ci")
    return build_workload("gcc", mem_scale=scale.mem_scale), scale


@pytest.mark.parametrize("name", WARMING)
def test_warmup_telemetry_matches_cost(name, gcc):
    workload, scale = gcc
    simulator = SampledSimulator(
        workload, scale.regimen(), scale.configs(),
        warmup_prefix=scale.warmup_prefix, detail_ramp=scale.detail_ramp,
        telemetry=Telemetry)
    result = simulator.run(WARMING[name]())
    counters = result.extra["telemetry"].counters
    assert result.cost.warm_updates() > 0
    assert counters.get("warmup.cache_updates", 0) \
        == result.cost.cache_updates
    assert counters.get("warmup.predictor_updates", 0) \
        == result.cost.predictor_updates


@pytest.mark.parametrize("name", ("MRRL", "BLRL"))
def test_warming_matches_reference_engine(name, gcc):
    """The profile-driven baselines on gcc; the registered methods (FP,
    S$, SBP, S$BP among them) run in tests/test_timing_blocks.py's gcc
    row, under the same reference engine."""
    workload, scale = gcc
    with reference_engine():
        reference = sampled_run_record(workload, scale, WARMING[name]())
    production = sampled_run_record(workload, scale, WARMING[name]())
    for key in reference:
        assert reference[key] == production[key], f"{name}: {key}"
