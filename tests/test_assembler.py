"""Unit tests for the text assembler."""

import pytest

from repro.isa import assemble, AssemblyError, Instruction, Opcode
from repro.functional import FunctionalMachine


# One line per opcode: each mnemonic parses to exactly the instruction
# the builder would emit, with operands in the documented order.
# Control transfers target instruction 0 through the label `top`.
EVERY_OPCODE = [
    ("add r1, r2, r3", Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3)),
    ("sub r1, r2, r3", Instruction(Opcode.SUB, rd=1, rs1=2, rs2=3)),
    ("mul r1, r2, r3", Instruction(Opcode.MUL, rd=1, rs1=2, rs2=3)),
    ("div r1, r2, r3", Instruction(Opcode.DIV, rd=1, rs1=2, rs2=3)),
    ("and r1, r2, r3", Instruction(Opcode.AND, rd=1, rs1=2, rs2=3)),
    ("or r1, r2, r3", Instruction(Opcode.OR, rd=1, rs1=2, rs2=3)),
    ("xor r1, r2, r3", Instruction(Opcode.XOR, rd=1, rs1=2, rs2=3)),
    ("sll r1, r2, r3", Instruction(Opcode.SLL, rd=1, rs1=2, rs2=3)),
    ("srl r1, r2, r3", Instruction(Opcode.SRL, rd=1, rs1=2, rs2=3)),
    ("slt r1, r2, r3", Instruction(Opcode.SLT, rd=1, rs1=2, rs2=3)),
    ("addi r1, r2, -4", Instruction(Opcode.ADDI, rd=1, rs1=2, imm=-4)),
    ("andi r1, r2, 6", Instruction(Opcode.ANDI, rd=1, rs1=2, imm=6)),
    ("ori r1, r2, 6", Instruction(Opcode.ORI, rd=1, rs1=2, imm=6)),
    ("xori r1, r2, 6", Instruction(Opcode.XORI, rd=1, rs1=2, imm=6)),
    ("slti r1, r2, 6", Instruction(Opcode.SLTI, rd=1, rs1=2, imm=6)),
    ("slli r1, r2, 3", Instruction(Opcode.SLLI, rd=1, rs1=2, imm=3)),
    ("srli r1, r2, 3", Instruction(Opcode.SRLI, rd=1, rs1=2, imm=3)),
    ("li r5, 99", Instruction(Opcode.LI, rd=5, imm=99)),
    ("load r1, r2, 8", Instruction(Opcode.LOAD, rd=1, rs1=2, imm=8)),
    ("store r1, r2, 8", Instruction(Opcode.STORE, rs1=2, rs2=1, imm=8)),
    ("beq r1, r0, top", Instruction(Opcode.BEQ, rs1=1, target=0)),
    ("bne r1, r0, top", Instruction(Opcode.BNE, rs1=1, target=0)),
    ("blt r1, r2, top", Instruction(Opcode.BLT, rs1=1, rs2=2, target=0)),
    ("bge r1, r2, top", Instruction(Opcode.BGE, rs1=1, rs2=2, target=0)),
    ("jmp top", Instruction(Opcode.JMP, target=0)),
    ("call top", Instruction(Opcode.CALL, target=0)),
    ("jr r4", Instruction(Opcode.JR, rs1=4)),
    ("callr r4", Instruction(Opcode.CALLR, rs1=4)),
    ("ret", Instruction(Opcode.RET)),
    ("nop", Instruction(Opcode.NOP)),
    ("halt", Instruction(Opcode.HALT)),
]


class TestParsing:
    def test_minimal_program(self):
        program = assemble("halt")
        assert len(program) == 1
        assert program.instructions[0].opcode is Opcode.HALT

    def test_comments_and_blank_lines(self):
        program = assemble(
            """
            # a comment
            nop   # trailing comment

            halt
            """
        )
        assert len(program) == 2

    def test_label_on_same_line(self):
        program = assemble("start: nop\n jmp start\n")
        assert program.instructions[1].target == 0

    def test_label_on_own_line(self):
        program = assemble("start:\n nop\n jmp start\n")
        assert program.instructions[1].target == 0

    def test_name_directive(self):
        assert assemble(".name widget\nhalt\n").name == "widget"

    def test_entry_directive(self):
        program = assemble(
            ".entry main\nfn: ret\nmain: call fn\nhalt\n"
        )
        assert program.entry == 1

    def test_hex_immediates(self):
        program = assemble("li r1, 0xFF\nhalt\n")
        assert program.instructions[0].imm == 255

    def test_negative_immediates(self):
        program = assemble("addi r1, r1, -4\nhalt\n")
        assert program.instructions[0].imm == -4

    def test_commas_optional(self):
        a = assemble("add r1, r2, r3\nhalt\n")
        b = assemble("add r1 r2 r3\nhalt\n")
        assert a.instructions[0] == b.instructions[0]

    @pytest.mark.parametrize("text,expected", EVERY_OPCODE,
                             ids=[text for text, _ in EVERY_OPCODE])
    def test_every_opcode_parses(self, text, expected):
        program = assemble(f"top: {text}\nhalt\n")
        assert program.instructions[0] == expected

    def test_opcode_table_is_complete(self):
        assert {inst.opcode for _, inst in EVERY_OPCODE} == set(Opcode)


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblyError, match="unknown mnemonic"):
            assemble("frobnicate r1\n")

    def test_bad_register(self):
        with pytest.raises(AssemblyError, match="register"):
            assemble("add r1, r2, r99\n")

    def test_not_a_register(self):
        with pytest.raises(AssemblyError):
            assemble("add r1, r2, 7\n")

    def test_bad_immediate(self):
        with pytest.raises(AssemblyError, match="immediate"):
            assemble("li r1, banana\n")

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblyError, match="expects"):
            assemble("add r1, r2\n")

    def test_undefined_label(self):
        with pytest.raises(AssemblyError, match="undefined label"):
            assemble("jmp nowhere\n")

    def test_unknown_directive(self):
        with pytest.raises(AssemblyError, match="directive"):
            assemble(".bogus\nhalt\n")

    def test_error_reports_line_number(self):
        with pytest.raises(AssemblyError, match="line 2"):
            assemble("nop\nbadop\n")


class TestExecution:
    def test_countdown_loop(self):
        program = assemble(
            """
            .entry start
            start:  li   r1, 10
                    li   r2, 0
            loop:   addi r2, r2, 1
                    addi r1, r1, -1
                    bne  r1, r0, loop
                    halt
            """
        )
        machine = FunctionalMachine(program)
        machine.run(100)
        assert machine.halted
        assert machine.registers[2] == 10

    def test_call_and_return(self):
        program = assemble(
            """
            .entry main
            double: add r1, r10, r10
                    ret
            main:   li r10, 21
                    call double
                    halt
            """
        )
        machine = FunctionalMachine(program)
        machine.run(100)
        assert machine.halted
        assert machine.registers[1] == 42

    def test_memory_roundtrip(self):
        program = assemble(
            """
            li    r1, 4096
            li    r2, 1234
            store r2, r1, 0
            load  r3, r1, 0
            halt
            """
        )
        machine = FunctionalMachine(program)
        machine.run(100)
        assert machine.registers[3] == 1234
