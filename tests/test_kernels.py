"""Semantic tests for each workload kernel emitter."""

import numpy as np
import pytest

from repro.functional import FunctionalMachine, Memory
from repro.isa import ProgramBuilder
from repro.workloads import init_jump_table, init_pointer_chain
from repro.workloads import kernels


def run_kernel(emit, args, memory=None, steps=100_000, setup=None):
    """Emit one kernel plus a driver that calls it once, then halts."""
    builder = ProgramBuilder()
    builder.jmp("main")
    entry = emit(builder)
    builder.label("main")
    builder.li(kernels.RNG_REG, 12345)
    if setup:
        setup(builder)
    for register, value in args.items():
        builder.li(register, value)
    builder.call(entry)
    builder.halt()
    machine = FunctionalMachine(builder.build(), memory)
    machine.run(steps)
    assert machine.halted, "kernel did not return"
    return machine


BASE = 0x1000_0000


class TestChaseCursor:
    def test_continues_across_calls(self):
        memory = Memory()
        rng = np.random.default_rng(0)
        head = init_pointer_chain(memory, BASE, 16, rng)

        builder = ProgramBuilder()
        builder.jmp("main")
        entry = kernels.emit_chase_cursor(builder, "k")
        builder.label("main")
        builder.li(23, head)
        builder.li(11, 10)
        builder.call(entry)
        builder.li(11, 6)
        builder.call(entry)  # 10 + 6 = 16 steps: full lap
        builder.halt()
        machine = FunctionalMachine(builder.build(), memory)
        machine.run(10_000)
        assert machine.registers[23] == head


class TestStreamCursor:
    def test_wraps_and_advances(self):
        memory = Memory()
        memory.fill_words(BASE, [1, 2, 3, 4])
        builder = ProgramBuilder()
        builder.jmp("main")
        entry = kernels.emit_stream_cursor(builder, "k", cursor_reg=24)
        builder.label("main")
        builder.add(24, 0, 0)
        builder.li(10, BASE)
        builder.li(11, 3)   # 4-word mask
        builder.li(12, 6)   # one and a half laps
        builder.call(entry)
        builder.halt()
        machine = FunctionalMachine(builder.build(), memory)
        machine.run(10_000)
        assert machine.registers[24] == 6          # cursor advanced
        assert machine.registers[15] == 1 + 2 + 3 + 4 + 1 + 2


class TestHashKernels:
    def test_walking_hash_stays_in_window(self):
        def setup(b):
            b.li(25, 8)  # window base at word 8
        machine = run_kernel(
            lambda b: kernels.emit_walking_hash(b, "k"),
            {10: BASE, 11: 1023, 12: 30, 13: 15}, setup=setup,
        )
        for address in machine.memory._words:
            word = (address - BASE) // 8
            # +2 slack: a 3-field record starting at the window's last
            # slot spills two words past it by design.
            assert 8 <= word <= 8 + 15 + 2, (
                "write outside the drifting window"
            )

    def test_walking_scatter_writes_fields(self):
        def setup(b):
            b.li(25, 0)
        machine = run_kernel(
            lambda b: kernels.emit_walking_scatter(b, "k", fields=3),
            {10: BASE, 11: 1023, 12: 10, 13: 7}, setup=setup,
        )
        assert machine.memory.footprint_words() >= 3


class TestBranchMaze:
    @pytest.mark.parametrize("threshold,low,high", [
        (0, 0.0, 0.02),      # never taken
        (128, 0.35, 0.65),   # balanced
        (256, 0.98, 1.0),    # always taken
    ])
    def test_bias_tracks_threshold(self, threshold, low, high):
        builder = ProgramBuilder()
        builder.jmp("main")
        entry = kernels.emit_branch_maze(builder, "k", threshold=threshold)
        builder.label("main")
        builder.li(kernels.RNG_REG, 99991)
        builder.li(11, 400)
        builder.call(entry)
        builder.halt()
        machine = FunctionalMachine(builder.build())
        outcomes = []

        def branch_hook(pc, next_pc, inst, taken):
            if inst.is_cond_branch and inst.opcode.name == "BLT":
                outcomes.append(taken)

        machine.run(100_000, branch_hook=branch_hook)
        rate = sum(outcomes) / len(outcomes)
        assert low <= rate <= high


class TestRecursive:
    def test_returns_and_balances_stack(self):
        machine = run_kernel(
            lambda b: kernels.emit_recursive(b, "k", work=1),
            {10: 12},
        )
        assert machine.registers[15] == 1
        assert machine.registers[30] == machine.program.stack_base


class TestIndirectDispatch:
    def test_calls_table_targets(self):
        builder = ProgramBuilder()
        builder.jmp("main")
        leaf_entries = []
        for leaf in range(4):
            index = builder.here()
            kernels.emit_leaf(builder, f"leaf_{leaf}")
            leaf_entries.append(index)
        entry = kernels.emit_indirect_dispatch(builder, "k")
        builder.label("main")
        builder.li(kernels.RNG_REG, 777)
        builder.li(10, BASE)
        builder.li(11, 3)
        builder.li(12, 20)
        builder.call(entry)
        builder.halt()

        memory = Memory()
        init_jump_table(memory, BASE, leaf_entries)
        machine = FunctionalMachine(builder.build(), memory)
        visited = set()
        machine.run(
            100_000,
            branch_hook=lambda pc, np_, inst, taken:
                visited.add(np_) if inst.is_call else None,
        )
        assert machine.halted
        assert visited & set(leaf_entries), "dispatch never reached a leaf"


class TestMatrixAccumulate:
    def test_weighted_sum(self):
        memory = Memory()
        memory.fill_words(BASE, [1] * 6)  # 2 rows x 3 cols of ones
        machine = run_kernel(
            lambda b: kernels.emit_matrix_accumulate(b, "k"),
            {10: BASE, 11: 2, 12: 3}, memory,
        )
        # Inner loop multiplies each element by the downward column
        # counter (3, 2, 1 per row): 2 rows x (3+2+1) = 12.
        assert machine.registers[15] == 12
