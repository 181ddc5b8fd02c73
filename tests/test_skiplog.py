"""Unit tests for the raw skip-region log oracle."""

import pytest

from repro.core import (
    REF_LOAD,
    REF_STORE,
    REF_INSTRUCTION,
    BR_COND,
    BR_CALL,
    BR_RET,
    BR_JUMP,
)
from repro.functional import FunctionalMachine
from repro.isa import ProgramBuilder
from tests.oracle_skiplog import SkipRegionLog


def logging_machine():
    builder = ProgramBuilder()
    builder.jmp("main")
    builder.label("fn")
    builder.li(1, 0x9000)
    builder.load(2, 1, 0)
    builder.store(2, 1, 8)
    builder.ret()
    builder.label("main")
    builder.label("top")
    builder.call("fn")
    builder.addi(3, 3, 1)
    builder.andi(4, 3, 1)
    builder.beq(4, 0, "top")
    builder.jmp("top")
    return FunctionalMachine(builder.build())


def run_with_log(count=100):
    machine = logging_machine()
    log = SkipRegionLog()
    machine.run(
        count,
        mem_hook=log.make_mem_hook(),
        branch_hook=log.make_branch_hook(),
        ifetch_hook=log.make_ifetch_hook(),
        ifetch_block_bytes=16,
    )
    return log


class TestHooks:
    def test_memory_records_capture_loads_and_stores(self):
        log = run_with_log()
        kinds = {kind for _addr, kind in log.memory_records}
        assert REF_LOAD in kinds
        assert REF_STORE in kinds
        assert REF_INSTRUCTION in kinds

    def test_branch_records_capture_all_kinds(self):
        log = run_with_log()
        kinds = {kind for _pc, _np, _t, kind in log.branch_records}
        assert {BR_COND, BR_CALL, BR_RET, BR_JUMP} <= kinds

    def test_records_in_program_order(self):
        log = run_with_log()
        pcs = [pc for pc, _np, _t, _k in log.branch_records]
        assert len(pcs) > 4  # interleaved control flow recorded

    def test_conditional_outcomes_recorded(self):
        log = run_with_log()
        outcomes = [t for _pc, _np, t, kind in log.branch_records
                    if kind == BR_COND]
        assert True in outcomes and False in outcomes


class TestTail:
    def test_full_fraction_returns_everything(self):
        log = run_with_log()
        assert log.memory_tail(1.0) == log.memory_records

    def test_half_fraction_returns_recent_half(self):
        log = SkipRegionLog()
        log.memory_records.extend((i, REF_LOAD) for i in range(10))
        tail = log.memory_tail(0.5)
        assert [a for a, _ in tail] == [5, 6, 7, 8, 9]

    def test_fraction_rounding(self):
        log = SkipRegionLog()
        log.memory_records.extend((i, REF_LOAD) for i in range(3))
        assert len(log.memory_tail(0.5)) == 2  # round(1.5) == 2

    def test_tiny_fraction_of_few_records(self):
        log = SkipRegionLog()
        log.memory_records.append((1, REF_LOAD))
        assert log.memory_tail(0.2) == []

    def test_invalid_fraction_rejected(self):
        log = SkipRegionLog()
        with pytest.raises(ValueError):
            log.memory_tail(0.0)
        with pytest.raises(ValueError):
            log.branch_tail(1.5)

    def test_branch_tail(self):
        log = run_with_log()
        full = log.branch_tail(1.0)
        half = log.branch_tail(0.5)
        assert half == full[len(full) - len(half):]

    def test_full_fraction_tail_is_a_copy(self):
        # Regression: fraction >= 1.0 used to return the *live* record
        # list, so a consumer holding the tail across clear() saw it
        # drained underfoot.
        log = run_with_log()
        memory_tail = log.memory_tail(1.0)
        branch_tail = log.branch_tail(1.0)
        assert memory_tail is not log.memory_records
        assert branch_tail is not log.branch_records
        snapshot_memory = list(memory_tail)
        snapshot_branch = list(branch_tail)
        log.clear()
        assert memory_tail == snapshot_memory
        assert branch_tail == snapshot_branch
        assert memory_tail != []


class TestLifecycle:
    def test_record_count(self):
        log = run_with_log()
        assert log.record_count() == \
            len(log.memory_records) + len(log.branch_records)

    def test_clear(self):
        log = run_with_log()
        log.clear()
        assert log.record_count() == 0
        assert log.memory_records == []
        assert log.branch_records == []
