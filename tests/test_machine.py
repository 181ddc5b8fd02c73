"""Unit tests for the functional machine: per-opcode semantics, hooks,
checkpointing."""

import pytest

from repro.functional import (
    FunctionalCheckpoint, FunctionalMachine, Memory, to_signed,
)
from repro.isa import ProgramBuilder

MASK64 = (1 << 64) - 1


def run_snippet(emit, steps=100, memory=None, setup=None):
    """Build a program from `emit(builder)`, run it, return the machine."""
    builder = ProgramBuilder()
    emit(builder)
    builder.halt()
    machine = FunctionalMachine(builder.build(), memory)
    if setup:
        setup(machine)
    machine.run(steps)
    return machine


class TestAluSemantics:
    def test_add(self):
        machine = run_snippet(lambda b: (b.li(1, 5), b.li(2, 7),
                                         b.add(3, 1, 2)))
        assert machine.registers[3] == 12

    def test_add_wraps_64_bits(self):
        machine = run_snippet(lambda b: (b.li(1, MASK64), b.li(2, 1),
                                         b.add(3, 1, 2)))
        assert machine.registers[3] == 0

    def test_sub_wraps(self):
        machine = run_snippet(lambda b: (b.li(1, 0), b.li(2, 1),
                                         b.sub(3, 1, 2)))
        assert machine.registers[3] == MASK64

    def test_mul_masks(self):
        machine = run_snippet(lambda b: (b.li(1, 1 << 60), b.li(2, 1 << 10),
                                         b.mul(3, 1, 2)))
        assert machine.registers[3] == (1 << 70) & MASK64

    def test_div(self):
        machine = run_snippet(lambda b: (b.li(1, 100), b.li(2, 7),
                                         b.div(3, 1, 2)))
        assert machine.registers[3] == 14

    def test_div_by_zero_yields_zero(self):
        machine = run_snippet(lambda b: (b.li(1, 100), b.div(3, 1, 0)))
        assert machine.registers[3] == 0

    def test_bitwise(self):
        machine = run_snippet(lambda b: (b.li(1, 0b1100), b.li(2, 0b1010),
                                         b.and_(3, 1, 2), b.or_(4, 1, 2),
                                         b.xor(5, 1, 2)))
        assert machine.registers[3] == 0b1000
        assert machine.registers[4] == 0b1110
        assert machine.registers[5] == 0b0110

    def test_shifts(self):
        machine = run_snippet(lambda b: (b.li(1, 1), b.li(2, 8),
                                         b.sll(3, 1, 2), b.srl(4, 3, 2)))
        assert machine.registers[3] == 256
        assert machine.registers[4] == 1

    def test_shift_amount_masked_to_63(self):
        machine = run_snippet(lambda b: (b.li(1, 1), b.li(2, 64),
                                         b.sll(3, 1, 2)))
        assert machine.registers[3] == 1  # 64 & 63 == 0

    def test_slt_signed(self):
        machine = run_snippet(lambda b: (b.li(1, -1), b.li(2, 1),
                                         b.slt(3, 1, 2), b.slt(4, 2, 1)))
        assert machine.registers[3] == 1
        assert machine.registers[4] == 0

    def test_immediates(self):
        machine = run_snippet(lambda b: (b.li(1, 10), b.addi(2, 1, -3),
                                         b.andi(3, 1, 2), b.ori(4, 1, 5),
                                         b.xori(5, 1, 0xFF),
                                         b.slti(6, 1, 11),
                                         b.slli(7, 1, 2), b.srli(8, 1, 1)))
        assert machine.registers[2] == 7
        assert machine.registers[3] == 2
        assert machine.registers[4] == 15
        assert machine.registers[5] == 0xF5
        assert machine.registers[6] == 1
        assert machine.registers[7] == 40
        assert machine.registers[8] == 5

    def test_writes_to_r0_discarded(self):
        machine = run_snippet(lambda b: (b.li(0, 42), b.addi(0, 0, 1)))
        assert machine.registers[0] == 0


class TestMemorySemantics:
    def test_store_load(self):
        machine = run_snippet(lambda b: (b.li(1, 0x2000), b.li(2, 77),
                                         b.store(2, 1, 8), b.load(3, 1, 8)))
        assert machine.registers[3] == 77

    def test_load_from_preinitialised_memory(self):
        memory = Memory()
        memory.store(0x3000, 555)
        machine = run_snippet(
            lambda b: (b.li(1, 0x3000), b.load(2, 1, 0)), memory=memory,
        )
        assert machine.registers[2] == 555


class TestControlSemantics:
    def test_beq_taken_and_not_taken(self):
        def emit(b):
            b.li(1, 5)
            b.li(2, 5)
            b.beq(1, 2, "eq")
            b.li(3, 111)   # skipped
            b.label("eq")
            b.li(4, 222)
        machine = run_snippet(emit)
        assert machine.registers[3] == 0
        assert machine.registers[4] == 222

    def test_bne_loop_count(self):
        def emit(b):
            b.li(1, 3)
            b.label("loop")
            b.addi(2, 2, 1)
            b.addi(1, 1, -1)
            b.bne(1, 0, "loop")
        machine = run_snippet(emit)
        assert machine.registers[2] == 3

    def test_blt_bge_signed(self):
        def emit(b):
            b.li(1, -5)
            b.li(2, 5)
            b.blt(1, 2, "lt")
            b.li(3, 1)
            b.label("lt")
            b.bge(2, 1, "ge")
            b.li(4, 1)
            b.label("ge")
            b.li(5, 1)
        machine = run_snippet(emit)
        assert machine.registers[3] == 0  # blt taken
        assert machine.registers[4] == 0  # bge taken
        assert machine.registers[5] == 1

    def test_call_sets_link_register(self):
        def emit(b):
            b.jmp("main")
            b.label("fn")
            b.li(1, 9)
            b.ret()
            b.label("main")
            b.call("fn")
        machine = run_snippet(emit)
        assert machine.registers[1] == 9
        assert machine.halted

    def test_callr_and_jr(self):
        def emit(b):
            b.jmp("main")
            b.label("fn")
            b.li(1, 3)
            b.ret()
            b.label("main")
            b.li(5, 1)      # index of fn
            b.callr(5)
            b.li(6, 8)      # index of the halt below... set by label math
        machine = run_snippet(emit)
        assert machine.registers[1] == 3

    def test_halt_stops_execution(self):
        machine = run_snippet(lambda b: b.li(1, 1), steps=50)
        assert machine.halted
        before = machine.instructions_retired
        machine.run(10)
        assert machine.instructions_retired == before


class TestRunAndHooks:
    def _looping_machine(self):
        builder = ProgramBuilder()
        builder.label("top")
        builder.li(1, 0x5000)
        builder.load(2, 1, 0)
        builder.store(2, 1, 8)
        builder.bne(0, 1, "top")
        return FunctionalMachine(builder.build())

    def test_run_executes_exact_count(self):
        machine = self._looping_machine()
        assert machine.run(1000) == 1000
        assert machine.instructions_retired == 1000

    def test_mem_hook_sees_loads_and_stores(self):
        machine = self._looping_machine()
        events = []
        machine.run(8, mem_hook=lambda pc, np_, addr, st: events.append(
            (pc, addr, st)))
        loads = [e for e in events if not e[2]]
        stores = [e for e in events if e[2]]
        assert loads and stores
        assert all(addr == 0x5000 for _pc, addr, _st in loads)
        assert all(addr == 0x5008 for _pc, addr, _st in stores)

    def test_branch_hook_sees_control(self):
        machine = self._looping_machine()
        events = []
        machine.run(8, branch_hook=lambda pc, np_, inst, taken:
                    events.append((pc, taken)))
        assert events
        assert all(taken for _pc, taken in events)

    def test_ifetch_hook_filters_same_block(self):
        machine = self._looping_machine()
        fetches = []
        machine.run(64, ifetch_hook=fetches.append, ifetch_block_bytes=64)
        # The 4-instruction loop fits in one 64-byte block: one fetch only.
        assert len(fetches) == 1

    def test_ifetch_hook_small_blocks(self):
        machine = self._looping_machine()
        fetches = []
        machine.run(8, ifetch_hook=fetches.append, ifetch_block_bytes=4)
        # One block per instruction: every instruction fetch reported.
        assert len(fetches) == 8


class TestCheckpoint:
    def test_checkpoint_restore_roundtrip(self):
        machine = TestRunAndHooks()._looping_machine()
        machine.run(10)
        checkpoint = FunctionalCheckpoint.capture(machine)
        registers = list(machine.registers)
        pc = machine.pc
        machine.run(100)
        checkpoint.restore(machine)
        assert machine.registers == registers
        assert machine.pc == pc
        assert machine.instructions_retired == 10

    def test_restore_isolates_memory(self):
        machine = TestRunAndHooks()._looping_machine()
        machine.run(4)
        checkpoint = FunctionalCheckpoint.capture(machine)
        word = machine.memory.load(0x5008)
        machine.memory.store(0x5008, 999)
        checkpoint.restore(machine)
        assert machine.memory.load(0x5008) == word

    def test_deterministic_replay_after_restore(self):
        machine = TestRunAndHooks()._looping_machine()
        machine.run(5)
        checkpoint = FunctionalCheckpoint.capture(machine)
        machine.run(50)
        state_a = (machine.pc, list(machine.registers))
        checkpoint.restore(machine)
        machine.run(50)
        state_b = (machine.pc, list(machine.registers))
        assert state_a == state_b


class TestSigned:
    @pytest.mark.parametrize("value,expected", [
        (0, 0),
        (1, 1),
        (MASK64, -1),
        (1 << 63, -(1 << 63)),
        ((1 << 63) - 1, (1 << 63) - 1),
    ])
    def test_to_signed(self, value, expected):
        assert to_signed(value) == expected
