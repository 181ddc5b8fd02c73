"""Unit tests for the Program container and basic-block analysis."""

import pytest

from repro.functional import FunctionalMachine
from repro.isa import Instruction, Opcode, Program, ProgramBuilder


def make_program(instructions, **kwargs):
    return Program(instructions, **kwargs)


class TestValidation:
    def test_empty_program_rejected(self):
        with pytest.raises(ValueError):
            Program([])

    def test_entry_out_of_range(self):
        with pytest.raises(ValueError):
            Program([Instruction(Opcode.NOP)], entry=5)

    def test_unresolved_branch_target_rejected(self):
        with pytest.raises(ValueError):
            Program([Instruction(Opcode.BEQ, rs1=1, rs2=2, target=-1),
                     Instruction(Opcode.HALT)])

    def test_out_of_range_jump_rejected(self):
        with pytest.raises(ValueError):
            Program([Instruction(Opcode.JMP, target=99),
                     Instruction(Opcode.HALT)])

    def test_indirect_jump_needs_no_target(self):
        Program([Instruction(Opcode.JR, rs1=1), Instruction(Opcode.HALT)])

    def test_ret_needs_no_target(self):
        Program([Instruction(Opcode.RET), Instruction(Opcode.HALT)])


class TestAddressing:
    def test_len(self):
        assert len(Program([Instruction(Opcode.NOP)] * 7)) == 7

    @pytest.mark.parametrize("engine", ("run", "run_scalar"))
    def test_fetch_addresses_follow_code_base(self, engine):
        # Instruction i sits at code_base + 4 * i; with 16-byte fetch
        # blocks, straight-line code reports one address per 4
        # instructions, starting at code_base.
        program = Program([Instruction(Opcode.NOP)] * 11
                          + [Instruction(Opcode.HALT)], code_base=0x1000)
        assert program.instruction_bytes == 4
        fetched = []
        getattr(FunctionalMachine(program), engine)(
            100, ifetch_hook=fetched.append, ifetch_block_bytes=16)
        assert fetched == [0x1000, 0x1010, 0x1020]

    @pytest.mark.parametrize("engine", ("run", "run_scalar"))
    def test_fetch_address_of_a_jump_target(self, engine):
        # A taken jump reports the target's own address, not its block's.
        program = Program([Instruction(Opcode.JMP, target=6)]
                          + [Instruction(Opcode.NOP)] * 5
                          + [Instruction(Opcode.HALT)], code_base=0x2000)
        fetched = []
        getattr(FunctionalMachine(program), engine)(
            100, ifetch_hook=fetched.append, ifetch_block_bytes=16)
        assert fetched == [0x2000, 0x2000 + 6 * 4]


class TestBasicBlocks:
    def _loop_program(self):
        builder = ProgramBuilder()
        builder.label("top")
        builder.addi(1, 1, 1)
        builder.addi(2, 2, -1)
        builder.bne(2, 0, "top")
        builder.halt()
        return builder.build()

    def test_loop_has_two_blocks(self):
        blocks = self._loop_program().basic_blocks()
        assert len(blocks) == 2
        assert blocks[0].start == 0 and blocks[0].end == 3
        assert blocks[1].start == 3

    def test_block_successors(self):
        blocks = self._loop_program().basic_blocks()
        # Loop block: taken -> itself, fall-through -> halt block.
        assert set(blocks[0].successors) == {0, 3}

    def test_blocks_cover_program(self):
        program = self._loop_program()
        blocks = program.basic_blocks()
        covered = sorted(
            index for block in blocks for index in range(block.start, block.end)
        )
        assert covered == list(range(len(program)))

    def test_blocks_are_disjoint(self):
        blocks = self._loop_program().basic_blocks()
        seen = set()
        for block in blocks:
            for index in range(block.start, block.end):
                assert index not in seen
                seen.add(index)

    def test_straight_line_single_block(self):
        program = Program(
            [Instruction(Opcode.NOP), Instruction(Opcode.NOP),
             Instruction(Opcode.HALT)]
        )
        blocks = program.basic_blocks()
        assert len(blocks) == 1
        assert len(blocks[0]) == 3

    def test_call_splits_block(self):
        builder = ProgramBuilder()
        builder.jmp("main")
        builder.label("fn")
        builder.ret()
        builder.label("main")
        builder.call("fn")
        builder.halt()
        blocks = builder.build().basic_blocks()
        starts = {block.start for block in blocks}
        assert 1 in starts  # fn is a target
        assert 2 in starts  # after jmp

    def test_workload_blocks_nonempty(self):
        from repro.workloads import build_workload
        program = build_workload("gcc").program
        blocks = program.basic_blocks()
        assert len(blocks) > 50
        assert all(len(block) > 0 for block in blocks)
