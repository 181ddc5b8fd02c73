"""Property-based tests of functional-machine semantics."""

from hypothesis import given, settings, strategies as st

from repro.functional import FunctionalCheckpoint, FunctionalMachine, to_signed
from repro.isa import ProgramBuilder

MASK64 = (1 << 64) - 1

uint64 = st.integers(min_value=0, max_value=MASK64)


def run_binop(method_name, lhs, rhs):
    builder = ProgramBuilder()
    builder.li(1, lhs)
    builder.li(2, rhs)
    getattr(builder, method_name)(3, 1, 2)
    builder.halt()
    machine = FunctionalMachine(builder.build())
    machine.run(10)
    return machine.registers[3]


@given(uint64, uint64)
@settings(max_examples=100, deadline=None)
def test_add_matches_modular_arithmetic(a, b):
    assert run_binop("add", a, b) == (a + b) & MASK64


@given(uint64, uint64)
@settings(max_examples=100, deadline=None)
def test_sub_matches_modular_arithmetic(a, b):
    assert run_binop("sub", a, b) == (a - b) & MASK64


@given(uint64, uint64)
@settings(max_examples=50, deadline=None)
def test_mul_matches_modular_arithmetic(a, b):
    assert run_binop("mul", a, b) == (a * b) & MASK64


@given(uint64, uint64)
@settings(max_examples=100, deadline=None)
def test_bitwise_ops_match(a, b):
    assert run_binop("and_", a, b) == a & b
    assert run_binop("or_", a, b) == a | b
    assert run_binop("xor", a, b) == a ^ b


@given(uint64, st.integers(min_value=0, max_value=200))
@settings(max_examples=100, deadline=None)
def test_shifts_mask_amount(value, amount):
    assert run_binop("sll", value, amount) == \
        (value << (amount & 63)) & MASK64
    assert run_binop("srl", value, amount) == value >> (amount & 63)


@given(uint64, uint64)
@settings(max_examples=100, deadline=None)
def test_slt_is_signed_comparison(a, b):
    assert run_binop("slt", a, b) == int(to_signed(a) < to_signed(b))


@given(uint64, uint64)
@settings(max_examples=50, deadline=None)
def test_branch_consistency_with_slt(a, b):
    """BLT must agree with SLT for all operand pairs."""
    builder = ProgramBuilder()
    builder.li(1, a)
    builder.li(2, b)
    builder.blt(1, 2, "less")
    builder.li(3, 0)
    builder.halt()
    builder.label("less")
    builder.li(3, 1)
    builder.halt()
    machine = FunctionalMachine(builder.build())
    machine.run(10)
    assert machine.registers[3] == int(to_signed(a) < to_signed(b))


@given(st.integers(min_value=1, max_value=500),
       st.integers(min_value=1, max_value=500))
@settings(max_examples=30, deadline=None)
def test_run_split_equals_run_whole(first, second):
    """Running n then m instructions equals running n+m at once."""
    def build():
        builder = ProgramBuilder()
        builder.li(6, 99991)
        builder.label("top")
        builder.li(8, 2862933555777941757)
        builder.mul(6, 6, 8)
        builder.addi(6, 6, 3037000493)
        builder.srli(7, 6, 40)
        builder.beq(7, 0, "top")
        builder.addi(9, 9, 1)
        builder.jmp("top")
        return FunctionalMachine(builder.build())

    split = build()
    split.run(first)
    split.run(second)
    whole = build()
    whole.run(first + second)
    assert split.pc == whole.pc
    assert split.registers == whole.registers
    assert split.instructions_retired == whole.instructions_retired


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=30, deadline=None)
def test_checkpoint_restore_replays_identically(prefix):
    from repro.workloads import build_workload
    machine = build_workload("twolf").make_machine()
    machine.run(prefix)
    checkpoint = FunctionalCheckpoint.capture(machine)
    machine.run(200)
    after_first = (machine.pc, tuple(machine.registers))
    checkpoint.restore(machine)
    machine.run(200)
    assert (machine.pc, tuple(machine.registers)) == after_first
