"""Unit tests for counters, Gshare PHT, BTB, and RAS.

The per-structure training steps (PHT update and history shift, BTB
write, RAS push and pop) are the reference engine's
(tests/oracle_engine.py); ``BranchPredictor.update`` trains all three
inline and is fuzzed against them in tests/test_primitives_fuzz.py.
"""

import pytest

from repro.branch import (
    PredictorConfig,
    paper_predictor_config,
    STRONG_NOT_TAKEN,
    WEAK_NOT_TAKEN,
    WEAK_TAKEN,
    STRONG_TAKEN,
    predict_taken,
    update_counter,
    apply_history,
    GsharePHT,
    BranchTargetBuffer,
    ReturnAddressStack,
)
from tests.oracle_engine import (
    btb_update,
    pht_update,
    push_history,
    ras_pop,
    ras_push,
)


def small_config(pht=256, btb=64, ras=8) -> PredictorConfig:
    return PredictorConfig(pht_entries=pht, btb_entries=btb, ras_entries=ras)


class TestCounters:
    def test_prediction_boundary(self):
        assert not predict_taken(STRONG_NOT_TAKEN)
        assert not predict_taken(WEAK_NOT_TAKEN)
        assert predict_taken(WEAK_TAKEN)
        assert predict_taken(STRONG_TAKEN)

    def test_saturation_up(self):
        assert update_counter(STRONG_TAKEN, True) == STRONG_TAKEN

    def test_saturation_down(self):
        assert update_counter(STRONG_NOT_TAKEN, False) == STRONG_NOT_TAKEN

    def test_increment_decrement(self):
        assert update_counter(WEAK_NOT_TAKEN, True) == WEAK_TAKEN
        assert update_counter(WEAK_TAKEN, False) == WEAK_NOT_TAKEN

    def test_three_taken_pins_any_state(self):
        for initial in range(4):
            assert apply_history(initial, [True] * 3) == STRONG_TAKEN

    def test_three_not_taken_pins_any_state(self):
        for initial in range(4):
            assert apply_history(initial, [False] * 3) == STRONG_NOT_TAKEN


class TestConfig:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            PredictorConfig(pht_entries=100, btb_entries=64, ras_entries=8)

    def test_history_bits(self):
        assert small_config(pht=256).history_bits == 8
        assert paper_predictor_config(scale=1).history_bits == 16

    def test_paper_scale_validation(self):
        with pytest.raises(ValueError):
            paper_predictor_config(scale=3)


class TestGshare:
    def test_index_mixes_history(self):
        pht = GsharePHT(small_config())
        base = pht.index(0x12)
        push_history(pht, True)
        assert pht.index(0x12) != base

    def test_initial_prediction_not_taken(self):
        pht = GsharePHT(small_config())
        assert not pht.predict(5)

    def test_training_flips_prediction(self):
        pht = GsharePHT(small_config())
        history = pht.history
        pht_update(pht, 5, True, history=history)
        # Re-point the GHR at the trained entry.
        pht.set_history(history)
        assert pht.predict(5)

    def test_update_shifts_history(self):
        pht = GsharePHT(small_config())
        pht_update(pht, 5, True)
        assert pht.history & 1 == 1
        pht_update(pht, 5, False)
        assert pht.history & 1 == 0

    def test_history_masked_to_width(self):
        pht = GsharePHT(small_config(pht=16))  # 4 history bits
        for _ in range(10):
            push_history(pht, True)
        assert pht.history == 0b1111

    def test_set_history_masks(self):
        pht = GsharePHT(small_config(pht=16))
        pht.set_history(0xFFFF)
        assert pht.history == 0xF

    def test_fresh_table_shares_no_state(self):
        # A cold table is a new one built from the same config: the
        # trained table's counters and history must not leak into it.
        config = small_config()
        trained = GsharePHT(config)
        for _ in range(4):
            pht_update(trained, 5, True, history=0)
        push_history(trained, True)
        fresh = GsharePHT(config)
        assert fresh.counters == [WEAK_NOT_TAKEN] * config.pht_entries
        assert (fresh.history, fresh.lookups, fresh.updates) == (0, 0, 0)
        assert not fresh.predict(5)
        assert trained.counters[5] == STRONG_TAKEN


class TestBTB:
    def test_miss_returns_none(self):
        btb = BranchTargetBuffer(small_config())
        assert btb.lookup(10) is None

    def test_update_then_hit(self):
        btb = BranchTargetBuffer(small_config())
        btb_update(btb, 10, 55)
        assert btb.lookup(10) == 55

    def test_aliasing_eviction(self):
        btb = BranchTargetBuffer(small_config(btb=64))
        btb_update(btb, 10, 55)
        btb_update(btb, 10 + 64, 77)   # same entry, different tag
        assert btb.lookup(10) is None
        assert btb.lookup(10 + 64) == 77

    def test_reconstruct_first_claimant_wins(self):
        btb = BranchTargetBuffer(small_config(btb=64))
        btb.clear_reconstructed()
        assert btb.reconstruct(10, 55)       # newest claims
        assert not btb.reconstruct(10 + 64, 77)  # older ignored
        assert btb.lookup(10) == 55

    def test_reconstruct_different_entries(self):
        btb = BranchTargetBuffer(small_config(btb=64))
        assert btb.reconstruct(1, 11)
        assert btb.reconstruct(2, 22)
        assert btb.lookup(1) == 11 and btb.lookup(2) == 22

    def test_fresh_buffer_shares_no_state(self):
        config = small_config()
        trained = BranchTargetBuffer(config)
        btb_update(trained, 10, 55)
        trained.reconstruct(11, 66)
        fresh = BranchTargetBuffer(config)
        assert fresh.lookup(10) is None and fresh.lookup(11) is None
        assert not any(fresh.reconstructed)
        assert fresh.updates == 0
        assert trained.lookup(10) == 55 and trained.lookup(11) == 66


class TestRAS:
    def test_push_pop(self):
        ras = ReturnAddressStack(small_config())
        ras_push(ras, 100)
        ras_push(ras, 200)
        assert ras_pop(ras) == 200
        assert ras_pop(ras) == 100

    def test_peek_does_not_pop(self):
        ras = ReturnAddressStack(small_config())
        ras_push(ras, 42)
        assert ras.peek() == 42
        assert ras.depth == 1

    def test_underflow_returns_zero(self):
        ras = ReturnAddressStack(small_config())
        assert ras_pop(ras) == 0
        assert ras.depth == 0

    def test_overflow_wraps(self):
        ras = ReturnAddressStack(small_config(ras=4))
        for value in (1, 2, 3, 4, 5):
            ras_push(ras, value)
        assert ras.depth == 4
        assert [ras_pop(ras) for _ in range(4)] == [5, 4, 3, 2]
        assert ras_pop(ras) == 0  # 1 was overwritten

    def test_contents_from_top(self):
        ras = ReturnAddressStack(small_config(ras=4))
        for value in (1, 2, 3):
            ras_push(ras, value)
        assert ras.contents_from_top() == [3, 2, 1]

    def test_set_contents_roundtrip(self):
        ras = ReturnAddressStack(small_config(ras=4))
        ras.set_contents([9, 8, 7])
        assert ras.contents_from_top() == [9, 8, 7]
        assert ras_pop(ras) == 9

    def test_set_contents_truncates_to_capacity(self):
        ras = ReturnAddressStack(small_config(ras=2))
        ras.set_contents([1, 2, 3, 4])
        assert ras.contents_from_top() == [1, 2]

    def test_fresh_stack_shares_no_state(self):
        config = small_config(ras=4)
        used = ReturnAddressStack(config)
        for value in (1, 2, 3):
            ras_push(used, value)
        fresh = ReturnAddressStack(config)
        assert (fresh.depth, fresh.pushes, fresh.pops) == (0, 0, 0)
        assert fresh.peek() == 0 and ras_pop(fresh) == 0
        assert used.contents_from_top() == [3, 2, 1]
