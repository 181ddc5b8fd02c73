"""Unit tests for opcode classification and latency tables."""

from repro.isa.opcodes import (
    Opcode,
    EXECUTION_LATENCY,
    is_alu,
    is_conditional_branch,
    is_control,
    LINK_REGISTER,
    STACK_POINTER,
    NUM_REGISTERS,
)


class TestClassification:
    def test_alu_register_ops(self):
        for op in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV,
                   Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SLL,
                   Opcode.SRL, Opcode.SLT):
            assert is_alu(op)

    def test_alu_immediate_ops(self):
        for op in (Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI,
                   Opcode.SLTI, Opcode.SLLI, Opcode.SRLI, Opcode.LI):
            assert is_alu(op)

    def test_memory_ops_are_not_alu(self):
        assert not is_alu(Opcode.LOAD)
        assert not is_alu(Opcode.STORE)

    def test_conditional_branches(self):
        for op in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE):
            assert is_conditional_branch(op)
            assert is_control(op)

    def test_unconditional_control(self):
        for op in (Opcode.JMP, Opcode.JR, Opcode.CALL, Opcode.CALLR,
                   Opcode.RET):
            assert is_control(op)
            assert not is_conditional_branch(op)

    def test_nop_and_halt_are_plain(self):
        for op in (Opcode.NOP, Opcode.HALT):
            assert not is_control(op)
            assert not is_alu(op)


class TestLatencies:
    def test_every_opcode_has_a_latency(self):
        for op in Opcode:
            assert EXECUTION_LATENCY[op] >= 1

    def test_multiply_is_slower_than_add(self):
        assert EXECUTION_LATENCY[Opcode.MUL] > EXECUTION_LATENCY[Opcode.ADD]

    def test_divide_is_slowest(self):
        assert EXECUTION_LATENCY[Opcode.DIV] == max(
            EXECUTION_LATENCY.values()
        )


class TestRegisterConventions:
    def test_register_file_size(self):
        assert NUM_REGISTERS == 32

    def test_link_and_stack_registers_distinct(self):
        assert LINK_REGISTER != STACK_POINTER
        assert 0 < LINK_REGISTER < NUM_REGISTERS
        assert 0 < STACK_POINTER < NUM_REGISTERS

    def test_opcode_values_are_dense_and_stable(self):
        values = sorted(op.value for op in Opcode)
        assert values == list(range(len(values)))
