"""Every op that reads a register sees a 64-bit word, in every engine.

`Memory` wraps a stored value to 64 bits, so a word written as ``-1``
or ``2**64 + 5`` loads as ``2**64 - 1`` or ``5``.  The ALU ops, branch
compares and indirect jumps that do not mask their operands rely on
that.  Each case below loads edge operands written as such raw Python
ints, applies one op and checks the result against a spec of the ISA
written here, independent of the engines.  The engines are the step
loop (`reference_engine()`), translated blocks with and without a mem
hook, and the timing core against its step-driven oracle in both
translation tiers.
"""

from __future__ import annotations

import contextlib
import itertools

import pytest

from repro.functional import FunctionalMachine, Memory
from repro.isa import Instruction, Opcode, ProgramBuilder
from repro.isa.opcodes import LINK_REGISTER
from repro.timing import blocks as timing_blocks
from tests.oracle_engine import reference_engine
from tests.test_timing_blocks import Pair

MASK = (1 << 64) - 1

#: Operands as a workload might write them: signed, at the 64-bit
#: boundaries, and above ``2**64``.
EDGES = (0, 1, 5, 63, 64, (1 << 63) - 1, -(1 << 63), -3, -1,
         (1 << 64) + 5, 1 << 70)

#: Immediates of the register-immediate ops, all in the signed 64-bit
#: range an assembled immediate takes.
IMMS = (0, 1, -1, 7, 63, 64, -(1 << 63), (1 << 63) - 1)

TABLE, OUT = 0x1000_0000, 0x2000_0000


def signed(value: int) -> int:
    value &= MASK
    return value - (1 << 64) if value >> 63 else value


def truncating_divide(a: int, b: int) -> int:
    """The ISA's DIV: signed, rounding toward zero, 0 for a zero divisor."""
    a, b = signed(a), signed(b)
    if b == 0:
        return 0
    quotient = abs(a) // abs(b)
    return quotient if (a < 0) == (b < 0) else -quotient


#: rd <- a op b over 64-bit operands, before the final wrap.
REGISTER_SPEC = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.DIV: truncating_divide,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SLL: lambda a, b: a << (b & 63),
    Opcode.SRL: lambda a, b: a >> (b & 63),
    Opcode.SLT: lambda a, b: int(signed(a) < signed(b)),
}

IMMEDIATE_SPEC = {
    Opcode.ADDI: lambda a, imm: a + imm,
    Opcode.ANDI: lambda a, imm: a & imm,
    Opcode.ORI: lambda a, imm: a | imm,
    Opcode.XORI: lambda a, imm: a ^ imm,
    Opcode.SLTI: lambda a, imm: int(signed(a) < imm),
    Opcode.SLLI: lambda a, imm: a << (imm & 63),
    Opcode.SRLI: lambda a, imm: a >> (imm & 63),
}

BRANCH_SPEC = {
    Opcode.BEQ: lambda a, b: a == b,
    Opcode.BNE: lambda a, b: a != b,
    Opcode.BLT: lambda a, b: signed(a) < signed(b),
    Opcode.BGE: lambda a, b: signed(a) >= signed(b),
}

PAIRS = list(itertools.product(EDGES, repeat=2))


def final_machines(program, memory):
    """The halted machine of every engine run over `memory`."""
    for engine in (reference_engine, contextlib.nullcontext):
        with engine():
            for hooked in (False, True):
                machine = FunctionalMachine(program, memory.copy())
                machine.run(100_000, mem_hook=(
                    lambda pc, next_pc, address, is_store: None)
                    if hooked else None)
                assert machine.halted
                yield machine
    for promote_after in (1, 10**9):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(timing_blocks, "PROMOTE_AFTER", promote_after)
            pair = Pair(program, memory)
            while not pair.simulators[0].machine.halted:
                pair.run(500)
        yield pair.simulators[1].machine


def outputs(machine, count: int) -> list[int]:
    return [machine.memory.load(OUT + 8 * index) for index in range(count)]


def loop_over_table(builder, count: int, stride: int, body) -> None:
    """Run `body` once per table row: r1 walks the table, r7 the output."""
    builder.li(1, TABLE)
    builder.li(7, OUT)
    builder.li(5, count)
    builder.label("loop")
    body()
    builder.addi(1, 1, stride)
    builder.addi(5, 5, -1)
    builder.bne(5, 0, "loop")
    builder.halt()


def emit_result(builder) -> None:
    builder.store(4, 7, 0)
    builder.addi(7, 7, 8)


@pytest.mark.parametrize("op", REGISTER_SPEC, ids=lambda op: op.name)
def test_register_op_on_edge_words(op):
    b = ProgramBuilder(name=f"edges-{op.name.lower()}")

    def body():
        b.load(2, 1, 0)
        b.load(3, 1, 8)
        b.emit(Instruction(op, rd=4, rs1=2, rs2=3))
        emit_result(b)

    loop_over_table(b, len(PAIRS), 16, body)
    memory = Memory()
    memory.fill_words(TABLE, itertools.chain.from_iterable(PAIRS))
    expected = [REGISTER_SPEC[op](x & MASK, y & MASK) & MASK
                for x, y in PAIRS]
    for machine in final_machines(b.build(), memory):
        assert outputs(machine, len(PAIRS)) == expected


@pytest.mark.parametrize("op", IMMEDIATE_SPEC, ids=lambda op: op.name)
def test_immediate_op_on_edge_words(op):
    b = ProgramBuilder(name=f"edges-{op.name.lower()}")

    def body():
        b.load(2, 1, 0)
        for imm in IMMS:
            b.emit(Instruction(op, rd=4, rs1=2, imm=imm))
            emit_result(b)

    loop_over_table(b, len(EDGES), 8, body)
    memory = Memory()
    for index, value in enumerate(EDGES):
        memory.store(TABLE + 8 * index, value)
    expected = [IMMEDIATE_SPEC[op](a & MASK, imm) & MASK
                for a in EDGES for imm in IMMS]
    for machine in final_machines(b.build(), memory):
        assert outputs(machine, len(expected)) == expected


@pytest.mark.parametrize("op", BRANCH_SPEC, ids=lambda op: op.name)
def test_branch_on_edge_words(op):
    b = ProgramBuilder(name=f"edges-{op.name.lower()}")
    branch = {Opcode.BEQ: b.beq, Opcode.BNE: b.bne,
              Opcode.BLT: b.blt, Opcode.BGE: b.bge}[op]

    def body():
        b.load(2, 1, 0)
        b.load(3, 1, 8)
        b.li(4, 0)
        branch(2, 3, "taken")
        b.jmp("record")
        b.label("taken")
        b.li(4, 1)
        b.label("record")
        emit_result(b)

    loop_over_table(b, len(PAIRS), 16, body)
    memory = Memory()
    memory.fill_words(TABLE, itertools.chain.from_iterable(PAIRS))
    expected = [int(BRANCH_SPEC[op](x & MASK, y & MASK)) for x, y in PAIRS]
    for machine in final_machines(b.build(), memory):
        assert outputs(machine, len(PAIRS)) == expected


@pytest.mark.parametrize("op", (Opcode.JR, Opcode.CALLR, Opcode.RET),
                         ids=lambda op: op.name)
def test_indirect_jump_to_a_wrapped_target(op):
    """A target stored as ``pc - 2**64`` or ``pc + 2**65`` jumps to pc."""
    b = ProgramBuilder(name=f"wrapped-{op.name.lower()}")
    b.li(1, TABLE)
    if op is Opcode.RET:
        b.load(LINK_REGISTER, 1, 0)
        b.ret()
    else:
        b.load(2, 1, 0)
        if op is Opcode.JR:
            b.jr(2)
        else:
            b.callr(2)
    return_pc = b.here()
    b.li(6, 1)
    b.halt()
    target = b.here()
    b.li(6, 2)
    b.halt()
    program = b.build()
    link = {Opcode.JR: 0, Opcode.CALLR: return_pc, Opcode.RET: target}[op]
    for stored in (target - (1 << 64), target + (1 << 65)):
        memory = Memory()
        memory.store(TABLE, stored)
        for machine in final_machines(program, memory):
            assert machine.registers[6] == 2
            assert machine.registers[LINK_REGISTER] == link
