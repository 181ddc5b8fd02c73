"""Differential fuzz: the translated timing core against the step-driven
oracle.

`TimingSimulator.run` (translated blocks and singles,
:mod:`repro.timing.blocks`) must be indistinguishable from the step-driven
loop kept in tests/oracle_engine.py: the same `TimingResult`, the same
cache statistics and tag/LRU state, bus schedules and predictor state,
and the same architectural state — for every paper workload, the three
core configs of the `sharded-sweep` ledger workload, run lengths that end
inside blocks, every `measure_after` offset in the first block, and both
translation tiers.  Directed cases cover HALT inside a block, poisoned
predecode slots, pcs outside the program, and threads translating one
shared table.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import sys
import threading

import pytest

from repro.branch import BranchPredictor, PredictorConfig
from repro.cache import MemoryHierarchy, paper_hierarchy_config
from repro.functional import FunctionalMachine, Memory
from repro.functional.predecode import predecode_program
from repro.harness import scale_from_env
from repro.isa import Instruction, Opcode, Program, ProgramBuilder
from repro.timing import CoreConfig, TimingSimulator
from repro.timing import blocks as timing_blocks
from repro.warmup import registered_method_names
from repro.workloads import PAPER_WORKLOADS, build_workload
from tests.cache_state import full_state
from tests.oracle_engine import (
    reference_engine, sampled_run_record, step_driven_run,
)
from tests.test_machine_batched import _mixed_program

BASE = CoreConfig()
#: The L1I of every `Pair`: 64-byte lines (16 instructions) in 16 sets.
L1I = paper_hierarchy_config(scale=16).l1i
#: The core configs of the sharded-sweep ledger workload.
CONFIGS = {
    "base": BASE,
    "rob-iq-x2": dataclasses.replace(BASE, rob_entries=128,
                                     issue_queue_entries=64),
    "issue-1-penalty+4": dataclasses.replace(BASE, issue_width=3,
                                             mispredict_penalty=9),
}


def snapshot(simulator: TimingSimulator) -> tuple:
    """Everything a timing run may change."""
    machine = simulator.machine
    hierarchy = simulator.hierarchy
    predictor = simulator.predictor
    return (
        machine.pc, machine.halted, machine.instructions_retired,
        tuple(machine.registers), dict(machine.memory._words),
        [full_state(cache) for cache in hierarchy.caches()],
        [(bus.busy_until, bus.transfers, bus.bytes_moved,
          bus.contention_cycles)
         for bus in (hierarchy.l1_bus, hierarchy.l2_bus)],
        hierarchy.memory_accesses,
        dict(vars(predictor.stats)), predictor.export_state(),
    )


class Pair:
    """The oracle and the production core over copies of one program."""

    def __init__(self, program: Program, memory: Memory,
                 core: CoreConfig = BASE) -> None:
        self.simulators = [
            TimingSimulator(
                FunctionalMachine(program, memory.copy()),
                MemoryHierarchy(paper_hierarchy_config(scale=16)),
                BranchPredictor(PredictorConfig(1024, 256, 8)), core)
            for _ in range(2)]

    def run(self, count: int, measure_after: int = 0):
        results = [run(simulator, count, measure_after)
                   for simulator, run in zip(
                       self.simulators,
                       (step_driven_run, TimingSimulator.run))]
        assert results[0] == results[1], (count, measure_after)
        assert snapshot(self.simulators[0]) == snapshot(self.simulators[1])
        return results[1]


def _first_block_length(program: Program) -> int:
    decoded = predecode_program(program)
    starts = timing_blocks.timing_block_table(program, L1I, BASE).starts
    length = 1
    pc = program.entry
    while (pc + length < len(starts) and not starts[pc + length]
           and not decoded.is_control[pc + length - 1]):
        length += 1
    return length


class TestWorkloadFuzz:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("name", PAPER_WORKLOADS)
    def test_chunked_runs_match_oracle(self, name, config):
        workload = build_workload(name, mem_scale=1, seed=23)
        pair = Pair(workload.program, workload.memory, CONFIGS[config])
        rng = random.Random(f"{name}/{config}")
        for _ in range(40):
            count = rng.choice((1, 2, 3, 5, 7, 13, 29, 61, 150, 400))
            measure_after = rng.choice(
                (0, 0, 1, count // 2, count - 1, count, count + 1))
            pair.run(count, measure_after=measure_after)

    @pytest.mark.parametrize("name", PAPER_WORKLOADS)
    def test_measure_after_every_offset_in_first_block(self, name):
        workload = build_workload(name, mem_scale=1, seed=29)
        length = _first_block_length(workload.program)
        for offset in range(1, length + 2):
            pair = Pair(workload.program, workload.memory)
            result = pair.run(length + 40, measure_after=offset)
            assert result.measured_instructions == length + 40 - offset
            pair.run(offset, measure_after=offset - 1)

    @pytest.mark.parametrize("promote_after", (1, 10**9))
    @pytest.mark.parametrize("name", ("gcc", "mcf", "parser", "perl"))
    def test_each_tier_matches_oracle(self, name, promote_after,
                                      monkeypatch):
        """Blocks from their first entry, and singles throughout."""
        monkeypatch.setattr(timing_blocks, "PROMOTE_AFTER", promote_after)
        workload = build_workload(name, mem_scale=1, seed=31)
        pair = Pair(workload.program, workload.memory)
        rng = random.Random(name)
        for _ in range(12):
            count = rng.choice((1, 9, 100, 700))
            pair.run(count, measure_after=rng.choice((0, 3, count // 3)))
        decoded = predecode_program(workload.program)
        table = next(table for key, table in decoded.blocks.items()
                     if key[0] == "timing")
        longest = max(length for _, length in table.values())
        assert (longest > 1) == (promote_after == 1)


def _halt_program() -> Program:
    b = ProgramBuilder(name="halt")
    b.li(1, 7)
    b.label("top")
    b.addi(2, 2, 1)
    b.addi(3, 2, 5)
    b.store(3, 1, 64)
    b.blt(2, 1, "top")
    b.addi(4, 3, 1)
    b.load(5, 1, 64)
    b.halt()
    b.addi(6, 6, 1)
    return b.build()


def _poisoned_program() -> Program:
    """A loop through an oversized LI and an oversized (unused) JMP
    immediate: both slots poison their opcode column."""
    huge = 1 << 70
    instructions = [
        Instruction(Opcode.LI, rd=5, imm=0x4000),
        Instruction(Opcode.ADDI, rd=1, rs1=1, imm=1),          # 1: top
        Instruction(Opcode.LI, rd=2, imm=huge),
        Instruction(Opcode.ADD, rd=3, rs1=2, rs2=1),
        Instruction(Opcode.STORE, rs1=5, rs2=3, imm=8),
        Instruction(Opcode.JMP, imm=huge, target=6),
        Instruction(Opcode.LOAD, rd=4, rs1=5, imm=8),           # 6
        Instruction(Opcode.SLTI, rd=6, rs1=1, imm=300),
        Instruction(Opcode.BNE, rs1=6, rs2=0, target=1),
        Instruction(Opcode.HALT),
    ]
    return Program(instructions, name="poisoned")


#: A data word, and the word its out-of-range image points at.
WRAP_DATA, WRAP_TARGET = 0x2000_0000, 0x2000_1000


def _wrapping_base_program() -> tuple[Program, Memory]:
    """A loop whose zero-displacement LOAD, STORE and ADDI take their
    base from a word stored as ``2**64 + WRAP_TARGET`` (``Memory`` wraps
    it on store)."""
    b = ProgramBuilder(name="wrapping-base")
    b.li(1, WRAP_DATA)
    b.li(5, 40)
    b.label("loop")
    b.load(2, 1, 0)
    b.load(3, 2, 0)
    b.addi(4, 2, 0)
    b.addi(3, 3, 1)
    b.store(3, 2, 0)
    b.addi(5, 5, -1)
    b.bne(5, 0, "loop")
    b.halt()
    memory = Memory()
    memory.store(WRAP_DATA, (1 << 64) + WRAP_TARGET)
    memory.store(WRAP_TARGET, 7)
    return b.build(), memory


class TestDirected:
    @pytest.mark.parametrize("chunk", (1, 2, 3, 5, 8, 13, 21, 34, 55))
    def test_every_opcode_class_in_chunks(self, chunk):
        """All opcode classes, rd=0 writes, and JR/CALLR/RET landing
        inside straight-line code, run to HALT in `chunk`-sized runs."""
        pair = Pair(_mixed_program(), Memory())
        while not pair.simulators[0].machine.halted:
            pair.run(chunk, measure_after=chunk // 2)
        assert pair.simulators[1].machine.halted

    @pytest.mark.parametrize("rob_entries", (1, 3, 64, 200))
    def test_straight_line_longer_than_block_cap(self, rob_entries,
                                                 monkeypatch):
        """Blocks are cut at BLOCK_CAP, or at a smaller ROB."""
        BLOCK_CAP = timing_blocks.BLOCK_CAP
        monkeypatch.setattr(timing_blocks, "PROMOTE_AFTER", 1)
        b = ProgramBuilder(name="straight")
        b.li(5, 0x2000)
        b.label("top")
        for index in range(2 * BLOCK_CAP + 5):
            if index % 9 == 4:
                b.store(index % 7 + 1, 5, 8 * index)
            elif index % 11 == 6:
                b.load(index % 5 + 1, 5, 8 * index - 32)
            else:
                b.addi(index % 7 + 1, (index + 3) % 7 + 1, index - 50)
        b.jmp("top")
        core = dataclasses.replace(BASE, rob_entries=rob_entries)
        pair = Pair(b.build(), Memory(), core)
        for count in (1, BLOCK_CAP - 1, 3 * BLOCK_CAP, 1000):
            pair.run(count, measure_after=count // 2)
        table = predecode_program(pair.simulators[1].machine.program
                                  ).blocks[("timing", 64, 16,
                                            min(BLOCK_CAP, rob_entries))]
        assert max(length for _, length in table.values()) == min(
            BLOCK_CAP, rob_entries)

    @pytest.mark.parametrize("core", (
        dataclasses.replace(BASE, issue_queue_entries=8),
        dataclasses.replace(BASE, issue_queue_entries=4),
        dataclasses.replace(BASE, issue_width=1, issue_queue_entries=8),
        dataclasses.replace(BASE, issue_width=1, dispatch_width=1,
                            fetch_width=2, issue_queue_entries=3,
                            rob_entries=5),
    ), ids=("iq8", "iq4", "issue1-iq8", "narrow-iq3-rob5"))
    def test_issue_queue_binds(self, core, monkeypatch):
        """The issue queue, a ring in the blocks and a heap in the oracle,
        where it binds: a straight-line block longer than the queue, long
        latencies behind it, and the paper workloads."""
        monkeypatch.setattr(timing_blocks, "PROMOTE_AFTER", 1)
        b = ProgramBuilder(name="long-latency")
        b.li(5, 0x2000)
        b.li(6, 3)
        b.label("top")
        for index in range(3 * timing_blocks.BLOCK_CAP):
            if index % 4 == 0:
                b.div(index % 3 + 1, index % 3 + 1, 6)
            elif index % 4 == 1:
                b.mul(index % 3 + 1, 6, 6)
            elif index % 4 == 2:
                b.load(4, 5, 8 * (index % 16))
            else:
                b.addi(index % 3 + 1, 4, index)
        b.jmp("top")
        pair = Pair(b.build(), Memory(), core)
        for count in (1, 5, core.issue_queue_entries + 1, 100, 1000):
            pair.run(count, measure_after=count // 2)
        table = predecode_program(pair.simulators[1].machine.program
                                  ).blocks[("timing", 64, 16, min(
                                      core.rob_entries,
                                      core.issue_queue_entries))]
        assert max(length for _, length in table.values()) == min(
            core.rob_entries, core.issue_queue_entries)
        for name in ("gcc", "mcf"):
            workload = build_workload(name, mem_scale=1, seed=41)
            pair = Pair(workload.program, workload.memory, core)
            for count in (50, 700, 3000):
                pair.run(count, measure_after=count // 4)

    def test_l1_hits_settled_when_a_run_raises(self, monkeypatch):
        """A run that counted L1 MRU hits in its blocks and then reached
        a pc outside the program adds them to the L1 statistics before
        the error leaves it."""
        monkeypatch.setattr(timing_blocks, "PROMOTE_AFTER", 1)
        b = ProgramBuilder(name="wild-after-hits")
        b.li(5, 0x2000)
        b.li(6, 60)
        b.label("loop")
        b.load(1, 5, 0)
        b.load(2, 5, 8)
        b.addi(6, 6, -1)
        b.bne(6, 0, "loop")
        b.li(7, 1 << 20)
        b.jr(7)
        pair = Pair(b.build(), Memory())
        for simulator, run in zip(pair.simulators,
                                  (step_driven_run, TimingSimulator.run)):
            with pytest.raises(ValueError, match="wild-after-hits"):
                run(simulator, 10_000, 0)
        assert snapshot(pair.simulators[0]) == snapshot(pair.simulators[1])
        hierarchy = pair.simulators[1].hierarchy
        assert hierarchy.l1d.stats.hits > 100
        assert hierarchy.l1i.stats.hits > 0

    @pytest.mark.parametrize("count", (1, 3, 4, 5, 7, 12, 13, 100, 401))
    def test_self_loops(self, count, monkeypatch):
        """A block branching back to its entry goes round inside its
        function while whole passes fit, whatever bound (the run's end,
        the ramp boundary) cuts a pass."""
        monkeypatch.setattr(timing_blocks, "PROMOTE_AFTER", 2)
        b = ProgramBuilder(name="self-loop")
        b.li(5, 0x3000)
        b.li(6, 500)
        b.label("loop")
        b.load(1, 5, 0)
        b.addi(1, 1, 3)
        b.store(1, 5, 0)
        b.addi(6, 6, -1)
        b.bne(6, 0, "loop")
        b.addi(2, 1, 1)
        b.halt()
        program = b.build()
        pair = Pair(program, Memory())
        calls = 0
        while not pair.simulators[0].machine.halted:
            pair.run(count, measure_after=(count // 3) * (calls % 3))
            calls += 1
        assert pair.simulators[1].machine.halted
        table = predecode_program(program).blocks[("timing", 64, 16, 32)]
        assert table[2][1] == -5

    @pytest.mark.parametrize("count", range(1, 12))
    def test_halt_inside_a_block(self, count):
        pair = Pair(_halt_program(), Memory())
        while not pair.simulators[0].machine.halted:
            pair.run(count, measure_after=count // 2)
        assert pair.simulators[1].machine.halted
        pair.run(count)

    def test_halt_retires_at_the_ramp_boundary(self):
        program = _halt_program()
        total = 0
        probe = FunctionalMachine(program, Memory())
        while not probe.halted:
            probe.step()
            total += 1
        for measure_after in (total - 1, total, total + 1):
            Pair(program, Memory()).run(total + 5, measure_after=measure_after)

    def test_poisoned_slots(self):
        program = _poisoned_program()
        decoded = predecode_program(program)
        assert decoded.ops[2] == -1 and decoded.ops[5] == -1
        for promote_after in (1, 10**9):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(timing_blocks, "PROMOTE_AFTER", promote_after)
                pair = Pair(program, Memory())
                for count in (1, 2, 5, 40, 700):
                    pair.run(count, measure_after=count // 3)
                while not pair.simulators[0].machine.halted:
                    pair.run(500)
        assert pair.simulators[1].machine.registers[2] == (1 << 70) & (
            (1 << 64) - 1)

    def test_zero_displacement_wraps_an_out_of_range_base(self):
        program, memory = _wrapping_base_program()
        runs = []
        for engine in (reference_engine, contextlib.nullcontext):
            with engine():
                for hooked in (False, True):
                    machine = FunctionalMachine(program, memory.copy())
                    addresses = []
                    machine.run(10_000, mem_hook=(
                        lambda pc, next_pc, address, is_store:
                        addresses.append(address)) if hooked else None)
                    runs.append((tuple(machine.registers),
                                 dict(machine.memory._words), addresses))
        assert all(run[:2] == runs[0][:2] for run in runs)
        assert runs[1][2] == runs[3][2]
        registers, words, addresses = runs[1]
        assert registers[4] == WRAP_TARGET
        assert words[WRAP_TARGET] == 7 + 40
        assert set(addresses) == {WRAP_DATA, WRAP_TARGET}
        for promote_after in (1, 10**9):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(timing_blocks, "PROMOTE_AFTER", promote_after)
                pair = Pair(program, memory)
                while not pair.simulators[0].machine.halted:
                    pair.run(50)
        assert pair.simulators[1].machine.registers[4] == WRAP_TARGET

    @pytest.mark.parametrize("kind", ("jr", "callr", "ret", "fall_off"))
    def test_wild_pc_raises_like_oracle(self, kind):
        b = ProgramBuilder(name=f"wild-{kind}")
        b.nop()
        b.nop()
        if kind == "jr":
            b.li(1, 1000)
            b.jr(1)
        elif kind == "callr":
            b.li(1, 1 << 40)
            b.callr(1)
        elif kind == "ret":
            b.li(31, 5)
            b.ret()
        else:
            b.addi(1, 1, 1)
            b.addi(2, 2, 2)
        program = b.build()
        pair = Pair(program, Memory())
        messages = []
        for simulator, run in zip(pair.simulators,
                                  (step_driven_run, TimingSimulator.run)):
            with pytest.raises(ValueError, match=f"wild-{kind}") as caught:
                run(simulator, 100, 0)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert snapshot(pair.simulators[0]) == snapshot(pair.simulators[1])

    @pytest.mark.parametrize("name", (*PAPER_WORKLOADS, "mixed", "halt",
                                      "poisoned"))
    def test_singles_of_one_shape_compile_alike(self, name):
        """A single whose shape was compiled for another pc is the code
        and operands its own source would give."""
        if name == "mixed":
            program = _mixed_program()
        elif name == "halt":
            program = _halt_program()
        elif name == "poisoned":
            program = _poisoned_program()
        else:
            program = build_workload(name, mem_scale=1, seed=5).program
        table = timing_blocks.TimingBlockTable(
            program, predecode_program(program), 64, 16, 32)
        for pc in range(len(program) + 2):
            function, length = table.single(pc)
            source, operands, own_length = table.single_source(pc)
            assert function.__code__ == timing_blocks._compile(
                source).__code__, pc
            assert function.__defaults__ == (tuple(operands.values()),), pc
            assert length == own_length, pc

    def test_tables_shared_by_configs(self):
        """Core configs whose ROB and issue queue both hold at least
        BLOCK_CAP entries reuse the program's table;
        a smaller ROB or issue queue, another L1I line size or set count
        does not."""
        program = build_workload("gcc", mem_scale=1, seed=5).program
        table = timing_blocks.timing_block_table(program, L1I, BASE)
        for rob, iq in ((32, 32), (128, 64), (64, 1024), (33, 99)):
            assert timing_blocks.timing_block_table(
                program, L1I, dataclasses.replace(
                    BASE, rob_entries=rob, issue_queue_entries=iq)) is table
        for config in CONFIGS.values():
            assert timing_blocks.timing_block_table(
                program, L1I, config) is table
        small_rob = dataclasses.replace(BASE, rob_entries=16)
        small_iq = dataclasses.replace(BASE, issue_queue_entries=8)
        assert timing_blocks.timing_block_table(
            program, L1I, small_rob) is not table
        assert timing_blocks.timing_block_table(
            program, L1I, small_iq) is not table
        wide = dataclasses.replace(L1I, line_bytes=128,
                                   size_bytes=2 * L1I.size_bytes)
        larger = dataclasses.replace(L1I, size_bytes=2 * L1I.size_bytes)
        assert timing_blocks.timing_block_table(
            program, wide, BASE) is not table
        assert timing_blocks.timing_block_table(
            program, larger, BASE) is not table
        # Beside the functional tables, under a key of its own.
        machine = FunctionalMachine(program, Memory())
        machine.run(100, ifetch_hook=lambda address: None,
                    ifetch_block_bytes=64)
        assert set(predecode_program(program).blocks) == {
            ("timing", 64, 16, 32), ("timing", 64, 16, 16),
            ("timing", 64, 16, 8), ("timing", 128, 16, 32),
            ("timing", 64, 32, 32), ("hooks", False, False, 16)}

    def test_threads_translating_one_table(self):
        """Threads missing on one shared table each cache their own pc's
        translation, as threads simulating one program at once do."""
        program = build_workload("perl", mem_scale=1, seed=7).program
        pcs = list(range(len(program) + 2))
        reference = timing_blocks.TimingBlockTable(
            program, predecode_program(program), 64, 16, 32)
        for pc in pcs:
            reference[pc]
            if pc < len(program) and reference.starts[pc]:
                reference.entered[pc] = timing_blocks.PROMOTE_AFTER
                reference.enter(pc)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                shared = timing_blocks.TimingBlockTable(
                    program, predecode_program(program), 64, 16, 32)
                errors = []

                def translate(offset):
                    try:
                        for pc in pcs[offset:] + pcs[:offset]:
                            shared[pc]
                            if pc < len(program) and shared.starts[pc]:
                                shared.entered[pc] = \
                                    timing_blocks.PROMOTE_AFTER
                                shared.enter(pc)
                    except Exception as error:  # noqa: BLE001
                        errors.append(error)

                threads = [threading.Thread(target=translate, args=(k,))
                           for k in range(0, len(pcs), 97)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert errors == []
                assert shared.keys() == reference.keys()
                for pc, (function, length) in reference.items():
                    entry = shared[pc]
                    assert entry[1] == length, pc
                    assert entry[0].__code__ == function.__code__, pc
                    assert entry[0].__defaults__ == function.__defaults__, pc
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.parametrize("method_name", registered_method_names())
def test_every_method_matches_reference_engine(method_name):
    """All methods on gcc; benchmarks/test_timing_core_equivalence.py
    runs all nine programs."""
    scale = scale_from_env(default="ci")
    workload = build_workload("gcc", mem_scale=scale.mem_scale)
    with reference_engine():
        reference = sampled_run_record(workload, scale, method_name)
    production = sampled_run_record(workload, scale, method_name)
    for key in reference:
        assert reference[key] == production[key], f"{method_name}: {key}"
