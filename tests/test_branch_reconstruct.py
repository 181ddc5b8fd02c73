"""Unit tests for reverse branch-predictor reconstruction (paper §3.2).

The reference point for most tests: SMARTS-style full functional warming
produces the ground-truth predictor state for a skip region; reverse
reconstruction should approach it, and must match it exactly for the
components with exact algorithms (GHR, BTB newest-claimant, RAS without
overflow, counters whose history pins them).
"""

import numpy as np

from repro.branch import BranchPredictor, PredictorConfig
from repro.core.branch_reconstruct import ReverseBranchReconstructor
from repro.core import BR_COND, BR_CALL, BR_RET, BR_JUMP
from repro.isa import Instruction, Opcode
from tests.oracle_skiplog import SkipRegionLog


def config():
    return PredictorConfig(pht_entries=64, btb_entries=16, ras_entries=4)


def cond_inst(target):
    return Instruction(Opcode.BNE, rs1=1, rs2=2, target=target)


def synth_log(seed=0, count=400, branch_pcs=(3, 9, 17, 33, 40)):
    """A synthetic branch trace plus the SMARTS-warmed reference state."""
    rng = np.random.default_rng(seed)
    log = SkipRegionLog()
    reference = BranchPredictor(config())
    for _ in range(count):
        pc = int(rng.choice(branch_pcs))
        kind = int(rng.integers(0, 10))
        if kind < 7:
            taken = bool(rng.random() < 0.7)
            next_pc = pc + 50 if taken else pc + 1
            inst = cond_inst(pc + 50)
            reference.update(pc, inst, taken, next_pc)
            log.branch_records.append((pc, next_pc, taken, BR_COND))
        elif kind == 7:
            reference.update(pc, Instruction(Opcode.CALL, target=pc + 20),
                             True, pc + 20)
            log.branch_records.append((pc, pc + 20, True, BR_CALL))
        elif kind == 8:
            reference.update(pc, Instruction(Opcode.RET), True, 0)
            log.branch_records.append((pc, 0, True, BR_RET))
        else:
            reference.update(pc, Instruction(Opcode.JMP, target=pc + 5),
                             True, pc + 5)
            log.branch_records.append((pc, pc + 5, True, BR_JUMP))
    return log, reference


class TestGHR:
    def test_ghr_matches_smarts_reference(self):
        log, reference = synth_log()
        predictor = BranchPredictor(config())
        reconstructor = ReverseBranchReconstructor(predictor)
        reconstructor.prepare(log)
        assert predictor.pht.history == reference.pht.history

    def test_ghr_stale_when_no_branches(self):
        predictor = BranchPredictor(config())
        predictor.pht.set_history(0x2A)
        ReverseBranchReconstructor(predictor).prepare(SkipRegionLog())
        assert predictor.pht.history == 0x2A


class TestBTB:
    def test_btb_matches_smarts_for_logged_taken_branches(self):
        log, reference = synth_log()
        predictor = BranchPredictor(config())
        ReverseBranchReconstructor(predictor).prepare(log)
        # Every entry the reference holds that was claimed by a logged
        # taken transfer must match (newest claimant wins in both).
        for entry in range(predictor.btb.entries):
            if predictor.btb.reconstructed[entry]:
                assert predictor.btb.tags[entry] == \
                    reference.btb.tags[entry]
                assert predictor.btb.targets[entry] == \
                    reference.btb.targets[entry]

    def test_not_taken_branches_do_not_claim_btb(self):
        log = SkipRegionLog()
        log.branch_records.append((5, 6, False, BR_COND))
        predictor = BranchPredictor(config())
        ReverseBranchReconstructor(predictor).prepare(log)
        assert not any(predictor.btb.reconstructed)


class TestRAS:
    def test_ras_matches_smarts_reference(self):
        log, reference = synth_log(seed=3)
        predictor = BranchPredictor(config())
        reconstructor = ReverseBranchReconstructor(predictor)
        reconstructor.prepare(log)
        recon = predictor.ras.contents_from_top()
        reference_contents = reference.ras.contents_from_top()
        # Equal up to the recovered depth (overflow approximation aside,
        # the top — the next prediction — must agree when non-empty).
        if reference_contents and recon:
            assert recon[0] == reference_contents[0]


class TestPHTCounters:
    def test_pinned_entries_written(self):
        log = SkipRegionLog()
        pc = 5
        # An always-taken branch saturates every entry it touches
        # three or more times, which pins the counter.
        for _ in range(20):
            log.branch_records.append((pc, 55, True, BR_COND))
        predictor = BranchPredictor(config())
        reconstructor = ReverseBranchReconstructor(predictor)
        reconstructor.prepare(log)
        # Once the GHR saturates, every execution indexes one entry.
        assert predictor.pht.counters[predictor.pht.index(pc)] == 3

    def test_unmentioned_entries_left_stale(self):
        log, _ = synth_log()
        predictor = BranchPredictor(config())
        predictor.pht.counters[:] = [0] * predictor.pht.entries
        reconstructor = ReverseBranchReconstructor(predictor)
        reconstructor.prepare(log)
        entries, _codes = reconstructor._windows
        mentioned = set(entries.tolist())
        assert 0 < len(mentioned) < predictor.pht.entries
        for entry in range(predictor.pht.entries):
            if entry not in mentioned:
                assert predictor.pht.counters[entry] == 0

    def test_counters_match_smarts_when_pinned(self):
        log, reference = synth_log(seed=7, count=600)
        predictor = BranchPredictor(config())
        reconstructor = ReverseBranchReconstructor(predictor)
        reconstructor.prepare(log)
        # For every entry the inference pinned exactly, the value must be
        # bit-identical to the SMARTS-warmed reference.
        table = reconstructor.table
        depth = table.max_history
        entries, codes = reconstructor._windows
        pinned = [entry for entry, code in zip(entries.tolist(),
                                               codes.tolist())
                  if table.lookup(code >> depth,
                                  code & ((1 << depth) - 1)).exact]
        assert pinned
        for entry in pinned:
            assert predictor.pht.counters[entry] == \
                reference.pht.counters[entry]

    def test_infer_counters_false_leaves_stale_values(self):
        log, _ = synth_log()
        predictor = BranchPredictor(config())
        stale = list(predictor.pht.counters)
        reconstructor = ReverseBranchReconstructor(
            predictor, infer_counters=False
        )
        reconstructor.prepare(log)
        assert predictor.pht.counters == stale
        assert reconstructor.counter_writes == 0

    def test_counter_writes_accounted(self):
        log, _ = synth_log()
        predictor = BranchPredictor(config())
        reconstructor = ReverseBranchReconstructor(predictor)
        reconstructor.prepare(log)
        entries, codes = reconstructor._windows
        assert reconstructor.counter_writes == int(
            (reconstructor.table.code_values[codes] >= 0).sum()) > 0
