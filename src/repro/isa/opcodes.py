"""Opcode definitions for the synthetic RISC ISA.

The reproduction replaces the paper's SimpleScalar/Alpha substrate with a
small load/store RISC instruction set.  Only the properties that matter to
sampled simulation are modelled: instruction class (for functional-unit
latency), memory behaviour (for the cache hierarchy), and control-transfer
behaviour (for the branch predictor, BTB, and return-address stack).
"""

from __future__ import annotations

import enum


class Opcode(enum.IntEnum):
    """Every instruction kind understood by the simulators.

    The numeric values are stable and dense so they can be used to index
    latency tables.
    """

    NOP = 0

    # Register-register ALU operations: rd <- rs1 <op> rs2.
    ADD = 1
    SUB = 2
    MUL = 3
    DIV = 4
    AND = 5
    OR = 6
    XOR = 7
    SLL = 8
    SRL = 9
    SLT = 10

    # Register-immediate ALU operations: rd <- rs1 <op> imm.
    ADDI = 11
    ANDI = 12
    ORI = 13
    XORI = 14
    SLTI = 15
    SLLI = 16
    SRLI = 17

    # rd <- imm (load immediate; stands in for LUI/ORI pairs).
    LI = 18

    # Memory operations.  LOAD: rd <- mem[rs1 + imm].  STORE: mem[rs1 + imm] <- rs2.
    LOAD = 19
    STORE = 20

    # Conditional branches: compare rs1 with rs2, branch to `target`.
    BEQ = 21
    BNE = 22
    BLT = 23
    BGE = 24

    # Unconditional control transfers.
    JMP = 25   # pc <- target
    JR = 26    # pc <- rs1 (indirect jump, e.g. switch tables)
    CALL = 27  # r31 <- return address; pc <- target (RAS push)
    CALLR = 28  # r31 <- return address; pc <- rs1 (indirect call, RAS push)
    RET = 29   # pc <- r31 (RAS pop)

    HALT = 30


#: Architectural register used as the link register by CALL/CALLR/RET.
LINK_REGISTER = 31

#: Architectural register conventionally used as the stack pointer.
STACK_POINTER = 30

#: Number of architectural integer registers (r0 is hard-wired to zero).
NUM_REGISTERS = 32

_ALU_REG = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.AND,
    Opcode.OR, Opcode.XOR, Opcode.SLL, Opcode.SRL, Opcode.SLT,
})

_ALU_IMM = frozenset({
    Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI,
    Opcode.SLTI, Opcode.SLLI, Opcode.SRLI, Opcode.LI,
})

_COND_BRANCHES = frozenset({Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE})

_CONTROL = _COND_BRANCHES | {
    Opcode.JMP, Opcode.JR, Opcode.CALL, Opcode.CALLR, Opcode.RET,
}


def is_alu(opcode: Opcode) -> bool:
    """Return True for any ALU (register or immediate) operation."""
    return opcode in _ALU_REG or opcode in _ALU_IMM


def is_conditional_branch(opcode: Opcode) -> bool:
    """Return True for BEQ/BNE/BLT/BGE."""
    return opcode in _COND_BRANCHES


def is_control(opcode: Opcode) -> bool:
    """Return True for any instruction that may redirect the PC."""
    return opcode in _CONTROL


#: Execution latency, in cycles, of each opcode on a universal function unit.
#: LOAD latency listed here excludes the memory hierarchy; the timing core
#: adds the cache access time on top of the 1-cycle address generation.
EXECUTION_LATENCY: dict[Opcode, int] = {op: 1 for op in Opcode}
EXECUTION_LATENCY[Opcode.MUL] = 3
EXECUTION_LATENCY[Opcode.DIV] = 12
