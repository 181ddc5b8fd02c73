"""Differential fuzz: the translated engine against the scalar baseline.

`FunctionalMachine.run` (translated basic blocks) must be architecturally
indistinguishable from the scalar `run_scalar` loop over `step()`, which
the reference machine of tests/oracle_engine.py runs: same registers, pc,
memory image, retired count, halt flag, and the same observation-hook
call sequence — for every workload, chunk size, and hook configuration.
These tests drive both engines side by side over randomized programs
from all nine paper workload generators plus directed corner cases
(forced `step()` fallback via poisoned predecode columns, signed DIV
semantics, halted-machine checkpoints, tail-fraction validation).
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.source import tail_cutoff
from repro.functional import FunctionalMachine, Memory, to_signed
from repro.functional.checkpoint import FunctionalCheckpoint
from repro.functional.predecode import predecode_program
from repro.isa import Instruction, Opcode, Program, ProgramBuilder
from repro.workloads import PAPER_WORKLOADS, build_workload
from tests.oracle_engine import ScalarMachine, reference_engine

_MASK64 = (1 << 64) - 1
INT64_MIN = -(1 << 63)

#: The reference and the production machine, in that order.
ENGINES = (ScalarMachine, FunctionalMachine)
ENGINE_IDS = ("scalar", "translated")


class HookTrace:
    """Records every observation-hook call, in order, for comparison.

    Mem and branch events also record the machine's ``pc`` and
    ``instructions_retired`` at call time: hooks such as SimPoint's BBV
    profiler and the BLRL/MRRL reuse-latency profilers read them.
    """

    def __init__(self, machine: FunctionalMachine) -> None:
        self.machine = machine
        self.events: list[tuple] = []

    def mem_hook(self, pc, next_pc, address, is_store):
        self.events.append(("mem", pc, next_pc, address, bool(is_store),
                            self.machine.pc,
                            self.machine.instructions_retired))

    def branch_hook(self, pc, next_pc, inst, taken):
        self.events.append(("br", pc, next_pc, inst.opcode, bool(taken),
                            self.machine.pc,
                            self.machine.instructions_retired))

    def ifetch_hook(self, address):
        self.events.append(("ifetch", address))


def machine_state(machine: FunctionalMachine) -> tuple:
    return (
        machine.pc,
        machine.halted,
        machine.instructions_retired,
        tuple(machine.registers),
        dict(machine.memory._words),
    )


def run_differential(program, memory, *, seed: int, total: int) -> None:
    """Drive scalar and translated machines through identical chunked runs.

    Chunk sizes and hook configurations vary pseudo-randomly (including
    hookless chunks, which exercise the fetch-block continuity
    bookkeeping across hooked/hookless transitions); after every chunk
    the full architectural state must match, and at the end the hook
    traces, with the machine state each mem and branch hook saw, must be
    identical element for element.
    """
    scalar = ScalarMachine(program, memory.copy())
    translated = FunctionalMachine(program, memory.copy())
    scalar_trace, translated_trace = HookTrace(scalar), HookTrace(translated)
    rng = random.Random(seed)
    remaining = total
    while remaining > 0 and not scalar.halted:
        chunk = min(rng.choice((1, 3, 17, 257, 1024, 4096)), remaining)
        hooked = rng.random() < 0.7
        counts = []
        for machine, trace in ((scalar, scalar_trace),
                               (translated, translated_trace)):
            if hooked:
                counts.append(machine.run(
                    chunk,
                    mem_hook=trace.mem_hook,
                    branch_hook=trace.branch_hook,
                    ifetch_hook=trace.ifetch_hook,
                    ifetch_block_bytes=64,
                ))
            else:
                counts.append(machine.run(chunk))
        assert counts[0] == counts[1], "retired counts diverged"
        assert machine_state(scalar) == machine_state(translated), (
            f"architectural state diverged after a {chunk}-instruction "
            f"{'hooked' if hooked else 'hookless'} chunk"
        )
        remaining -= chunk
    assert scalar_trace.events == translated_trace.events, (
        "observation-hook call sequences diverged"
    )


class TestWorkloadFuzz:
    @pytest.mark.parametrize("name", PAPER_WORKLOADS)
    def test_translated_matches_scalar(self, name):
        workload = build_workload(name, mem_scale=1, seed=17)
        run_differential(workload.program, workload.memory,
                         seed=hash(name) & 0xFFFF, total=6000)

    @pytest.mark.parametrize("name", ("gcc", "mcf"))
    def test_single_step_chunks(self, name):
        """chunk=1 forces the translated engine through every boundary."""
        workload = build_workload(name, mem_scale=1, seed=3)
        scalar = ScalarMachine(workload.program, workload.memory.copy())
        translated = FunctionalMachine(workload.program,
                                       workload.memory.copy())
        for _ in range(700):
            scalar.run(1)
            translated.run(1)
            assert machine_state(scalar) == machine_state(translated)


class TestForcedFallback:
    def test_poisoned_predecode_falls_back_to_step(self):
        """An immediate too wide for the int64 columns must poison its
        slot (step() fallback) without perturbing neighbouring spans."""
        huge = 1 << 70
        instructions = [
            Instruction(Opcode.LI, rd=1, imm=5),
            Instruction(Opcode.LI, rd=2, imm=huge),
            Instruction(Opcode.ADDI, rd=3, rs1=1, imm=7),
            Instruction(Opcode.ADD, rd=4, rs1=3, rs2=1),
            Instruction(Opcode.HALT),
        ]
        program = Program(instructions, name="poisoned")
        decoded = predecode_program(program)
        assert decoded.ops[1] == -1, "oversized imm must poison its opcode"
        from repro.functional import Memory

        run_differential(program, Memory(), seed=1, total=10)
        machine = FunctionalMachine(program, Memory())
        machine.run(10)
        assert machine.halted
        assert machine.registers[2] == huge & _MASK64
        assert machine.registers[3] == 12
        assert machine.registers[4] == 17


def _div_result(dividend: int, divisor: int, engine) -> int:
    program = Program([
        Instruction(Opcode.DIV, rd=3, rs1=1, rs2=2),
        Instruction(Opcode.HALT),
    ], name="div")
    from repro.functional import Memory

    machine = engine(program, Memory())
    machine.registers[1] = dividend & _MASK64
    machine.registers[2] = divisor & _MASK64
    machine.run(4)
    return to_signed(machine.registers[3])


class TestSignedDivision:
    @pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
    @pytest.mark.parametrize("dividend,divisor,expected", [
        (-7, 2, -3),     # truncates toward zero, not floor (-4)
        (7, -2, -3),
        (-7, -2, 3),
        (7, 2, 3),
        (1, -1, -1),
        (INT64_MIN + 1, 1, INT64_MIN + 1),
        (0, -5, 0),
        (5, 0, 0),       # paper-kernel convention: divide-by-zero yields 0
        (-5, 0, 0),
    ])
    def test_truncating_signed_division(self, dividend, divisor, expected,
                                        engine):
        assert _div_result(dividend, divisor, engine) == expected

    @pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
    def test_overflow_wraps_like_hardware(self, engine):
        # INT64_MIN / -1 overflows a 64-bit signed result; the two's
        # complement wraparound keeps the register at INT64_MIN.
        assert _div_result(INT64_MIN, -1, engine) == INT64_MIN


class TestHaltedCheckpoint:
    def _halted_machine(self) -> FunctionalMachine:
        program = Program([
            Instruction(Opcode.LI, rd=1, imm=9),
            Instruction(Opcode.HALT),
        ], name="halts")
        from repro.functional import Memory

        machine = FunctionalMachine(program, Memory())
        machine.run(10)
        assert machine.halted
        return machine

    def test_in_process_checkpoint_restores_halted(self):
        machine = self._halted_machine()
        checkpoint = FunctionalCheckpoint.capture(machine)
        assert checkpoint.halted is True
        machine.halted = False  # simulate reuse of the same machine
        checkpoint.restore(machine)
        assert machine.halted is True
        # A restored halted machine must not resume past program end.
        assert machine.run(5) == 0
        assert machine.step().halted

    def test_functional_checkpoint_pickle_round_trip(self):
        machine = self._halted_machine()
        checkpoint = FunctionalCheckpoint.capture(machine)
        clone = pickle.loads(pickle.dumps(checkpoint))
        target = FunctionalMachine(machine.program, machine.memory.copy())
        assert target.halted is False
        clone.restore(target)
        assert target.halted is True
        assert target.run(5) == 0
        assert target.registers[1] == 9


class TestTailFractionValidation:
    @pytest.mark.parametrize("fraction", (0.0, -0.25, 1.0 + 1e-9, 2.0))
    def test_out_of_domain_fraction_raises(self, fraction):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            tail_cutoff(100, fraction)

    def test_message_names_the_offending_value(self):
        with pytest.raises(ValueError, match="got 2.5"):
            tail_cutoff(10, 2.5)

    def test_boundaries_accepted(self):
        assert tail_cutoff(100, 1.0) == 0
        assert tail_cutoff(100, 0.25) == 75
        assert tail_cutoff(0, 0.5) == 0

    def test_log_tail_queries_validate(self):
        from repro.core.compaction import CompactedSkipRegionLog
        from tests.oracle_skiplog import SkipRegionLog

        raw = SkipRegionLog()
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            raw.memory_tail(0.0)
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            list(raw.iter_memory_reverse(1.5))
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            raw.memory_reverse_arrays(-1.0)
        compacted = CompactedSkipRegionLog(line_bytes=64)
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            compacted.memory_reverse_arrays(0.0)
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            compacted.btb_claims_arrays(4.0)

    def test_cli_maps_fraction_error_to_exit_2(self, capsys, monkeypatch):
        from repro.__main__ import main
        from repro.core import ReverseStateReconstruction
        from repro.warmup.registry import _registry

        monkeypatch.setitem(
            _registry(), "BadFraction",
            lambda: ReverseStateReconstruction(fraction=1.5))
        code = main(["sample", "gcc", "--method", "BadFraction",
                     "--scale", "ci"])
        assert code == 2
        captured = capsys.readouterr()
        assert "fraction must be in (0, 1]" in captured.err
        assert "1.5" in captured.err


def _mixed_program(limit: int = 100) -> Program:
    """A loop over every opcode class that halts after `limit` iterations.

    Its JR, CALLR and RET land in the middle of a straight-line run that
    the loop also enters from the top (labels ``jr_target``,
    ``callr_target``, ``ret_target``), and it has an rd=0 load and an
    rd=0 ALU write.
    """
    b = ProgramBuilder(name="mixed")
    b.li(1, 0)
    b.li(5, 0x1000)
    b.li(22, limit)
    b.label("top")
    b.addi(1, 1, 1)
    b.slli(2, 1, 3)
    b.andi(2, 2, 255)
    b.add(3, 5, 2)
    b.store(1, 3, 0)
    b.load(4, 3, 0)
    b.load(0, 3, 8)
    b.addi(0, 1, 7)
    b.sub(6, 4, 1)
    b.xor(7, 6, 2)
    b.slt(8, 6, 1)
    b.slti(9, 1, -3)
    b.bne(0, 0, "top")
    b.bge(1, 0, "dispatch")
    b.label("dispatch")
    b.andi(12, 1, 3)
    b.li(10, 1)
    b.beq(12, 0, "jr")
    b.beq(12, 10, "callr")
    b.li(10, 2)
    b.beq(12, 10, "ret")
    b.addi(14, 14, 1)
    b.mul(15, 14, 1)
    jr_target = b.here()
    b.label("jr_target")
    b.srli(16, 15, 2)
    callr_target = b.here()
    b.label("callr_target")
    b.or_(17, 16, 7)
    ret_target = b.here()
    b.label("ret_target")
    b.sll(18, 1, 12)
    b.srl(19, 18, 12)
    b.xori(20, 19, 5)
    b.ori(21, 20, 8)
    b.div(23, 21, 12)
    b.blt(1, 22, "top")
    b.halt()
    b.label("jr")
    b.li(10, jr_target)
    b.jr(10)
    b.label("callr")
    b.li(13, callr_target)
    b.callr(13)
    b.label("ret")
    b.li(31, ret_target)
    b.ret()
    return b.build()


def _hooks(trace: HookTrace, signature) -> dict:
    return {f"{name}_hook": getattr(trace, f"{name}_hook")
            for name in signature}


def lockstep(program, chunk: int, *, signature=("mem", "branch", "ifetch"),
             block_bytes: int = 64, machines=None):
    """Run a scalar and a translated machine to HALT in `chunk`-sized calls
    with the hooks in `signature`, checking state after every call and
    the hook traces at the end; returns the two machines."""
    from repro.functional import Memory

    if machines is None:
        machines = tuple(engine(program, Memory()) for engine in ENGINES)
    traces = [HookTrace(machine) for machine in machines]
    while not machines[0].halted:
        counts = [machine.run(chunk, ifetch_block_bytes=block_bytes,
                              **_hooks(trace, signature))
                  for machine, trace in zip(machines, traces)]
        assert counts[0] == counts[1]
        assert machine_state(machines[0]) == machine_state(machines[1])
    assert machines[1].halted
    assert traces[0].events == traces[1].events
    return machines


class TestBlockTranslation:
    @pytest.mark.parametrize("chunk", range(1, 41))
    def test_every_chunk_size(self, chunk):
        """Chunk ends split the translated blocks at every offset."""
        lockstep(_mixed_program(), chunk)

    def test_ifetch_block_sizes_have_their_own_tables(self):
        program = _mixed_program()
        for block_bytes in (16, 32, 64, 128):
            lockstep(program, 29, block_bytes=block_bytes)
        ifetch_sizes = {key[3] for key in predecode_program(program).blocks}
        assert {4, 8, 16, 32} <= ifetch_sizes

    def test_interleaved_hook_signatures_on_one_program(self):
        from repro.functional import Memory

        program = _mixed_program()
        pairs = [
            [engine(program, Memory()) for engine in ENGINES]
            for _ in range(2)
        ]
        signatures = (("mem",), ("branch", "ifetch"))
        traces = [[HookTrace(machine) for machine in pair] for pair in pairs]
        while not pairs[0][0].halted or not pairs[1][0].halted:
            for pair, pair_traces, signature in zip(pairs, traces,
                                                    signatures):
                for machine, trace in zip(pair, pair_traces):
                    machine.run(13, **_hooks(trace, signature))
                assert machine_state(pair[0]) == machine_state(pair[1])
        for pair_traces in traces:
            assert pair_traces[0].events == pair_traces[1].events
        assert len(predecode_program(program).blocks) >= 2

    def test_checkpoint_restored_mid_block(self):
        from repro.functional import Memory

        program = _mixed_program()
        warm = FunctionalMachine(program, Memory())
        warm.run(200)  # translate the loop from its top
        probe = FunctionalMachine(program, Memory())
        middle = program.labels["top"] + 5
        while probe.pc != middle:
            probe.step()
        table = predecode_program(program).blocks[("hooks", False, False, 0)]
        assert program.labels["top"] in table and middle not in table
        checkpoint = FunctionalCheckpoint.capture(probe)
        machines = tuple(checkpoint.restore(engine(program, Memory()))
                         for engine in ENGINES)
        lockstep(program, 57, machines=machines)

    def test_straight_line_longer_than_block_cap(self):
        from repro.functional import Memory
        from repro.functional.blocks import BLOCK_CAP

        b = ProgramBuilder(name="straight")
        b.li(5, 0x2000)
        for index in range(2 * BLOCK_CAP + 5):
            if index % 9 == 4:
                b.store(index % 7 + 1, 5, 8 * index)
            else:
                b.addi(index % 7 + 1, (index + 3) % 7 + 1, index - 50)
        b.halt()
        program = b.build()
        for chunk in (1, BLOCK_CAP - 1, BLOCK_CAP + 1, 10_000):
            lockstep(program, chunk)
        machine = FunctionalMachine(program, Memory())
        machine.run(10_000)
        table = predecode_program(program).blocks[("hooks", False, False, 0)]
        assert table[0][1] == BLOCK_CAP

    def test_rd0_load_and_alu_writes(self):
        from repro.functional import Memory

        b = ProgramBuilder(name="rd0")
        b.li(5, 0x3000)
        b.li(0, 7)
        b.addi(0, 5, 3)
        b.load(0, 5, 16)
        b.store(5, 5, 16)
        b.load(0, 5, 16)
        b.halt()
        program = b.build()
        _, translated = lockstep(program, 100)
        assert translated.registers[0] == 0
        machine = FunctionalMachine(program, Memory())
        trace = HookTrace(machine)
        machine.run(100, mem_hook=trace.mem_hook)
        assert [event[3] for event in trace.events] == [0x3010] * 3

    def test_threads_translating_one_table(self):
        """Threads missing on one shared table each cache their own pc's
        block, as threads simulating one program at once do."""
        import sys
        import threading

        from repro.functional.blocks import Emitter, block_table

        signature = (Emitter, True, True, 16)
        reference = block_table(_mixed_program(), *signature)
        pcs = list(range(len(_mixed_program()) + 2))
        for pc in pcs:
            reference[pc]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for attempt in range(20):
                program = _mixed_program()
                shared = block_table(program, *signature)
                errors = []

                def translate(offset):
                    try:
                        for pc in pcs[offset:] + pcs[:offset]:
                            shared[pc]
                    except Exception as error:  # noqa: BLE001
                        errors.append(error)

                threads = [threading.Thread(target=translate, args=(k,))
                           for k in range(0, len(pcs), 3)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert errors == []
                assert shared.keys() == reference.keys()
                for pc, (function, length, last) in reference.items():
                    entry = shared[pc]
                    assert entry[1:] == (length, last), pc
                    if function is not None:
                        assert entry[0].__code__ == function.__code__, pc
        finally:
            sys.setswitchinterval(interval)

    def test_indirect_transfers_land_mid_block(self):
        program = _mixed_program()
        lockstep(program, 1000)
        table = predecode_program(program).blocks[("hooks", True, True, 16)]
        for label in ("jr_target", "callr_target", "ret_target"):
            landing = program.labels[label]
            assert landing in table, label
            # The landing pc is also covered by a block from an earlier pc.
            assert any(start < landing < start + abs(length)
                       for start, (_, length, _) in table.items()), label


#: Instructions per pass of :func:`_self_loop_program`'s loop.
LOOP_LENGTH = 8


def _self_loop_program(top: int, passes: int = 30) -> Program:
    """A loop of LOOP_LENGTH instructions at pc `top`, `passes` times
    round, then HALT.

    Straight-line code leads into the first pass, so the block at the
    entry runs it and the block at `top` is the self-loop.  Each pass
    loads (with a zero displacement) the word the pass before stored, so
    memory carries from pass to pass.
    """
    b = ProgramBuilder(name=f"self-loop-{top}")
    b.li(5, 0x4000)
    b.li(6, passes)
    while b.here() < top:
        b.addi(7, 7, 3)
    b.label("top")
    b.load(1, 5, 0)
    b.addi(1, 1, 3)
    b.store(1, 5, 8)
    b.load(2, 5, 8)
    b.xor(3, 3, 2)
    b.addi(5, 5, 8)
    b.addi(6, 6, -1)
    b.bne(6, 0, "top")
    b.halt()
    return b.build()


#: Loop entries whose pass stays in one 16-instruction fetch block, and
#: one whose pass spans two.
LOOP_TOPS = {"one-fetch-block": 2, "two-fetch-blocks": 12}


class TestSelfLoops:
    """A block that branches back to its own entry goes round inside its
    function while a whole pass fits in what is left of the run."""

    @pytest.mark.parametrize("signature", (
        ("mem", "branch", "ifetch"), ("mem",), ("branch", "ifetch"), (),
    ), ids=("all", "mem", "branch-ifetch", "hookless"))
    @pytest.mark.parametrize("top", LOOP_TOPS.values(), ids=LOOP_TOPS)
    def test_every_chunk_length(self, top, signature):
        """Runs of 1 to 3 passes, most ending mid-pass; the callable
        hooks see ``pc`` and ``instructions_retired`` as in the scalar
        run in every pass."""
        program = _self_loop_program(top)
        for chunk in range(1, 3 * LOOP_LENGTH + 1):
            lockstep(program, chunk, signature=signature)
        key = ("hooks", "mem" in signature, "branch" in signature,
               16 if "ifetch" in signature else 0)
        table = predecode_program(program).blocks[key]
        assert table[top][1] == -LOOP_LENGTH
        assert table[program.entry][1] > 0

    def test_pass_across_two_fetch_blocks_fetches_both(self):
        top = LOOP_TOPS["two-fetch-blocks"]
        assert top // 16 != (top + LOOP_LENGTH - 1) // 16
        program = _self_loop_program(top, passes=30)
        traces = []
        for engine in ENGINES:
            machine = engine(program, Memory())
            trace = HookTrace(machine)
            machine.run(10_000, ifetch_hook=trace.ifetch_hook)
            traces.append(trace.events)
        assert traces[0] == traces[1]
        # The entry, then per pass the fetch blocks of pcs `top` and 16.
        fetched = [0, 16] + [top, 16] * 29
        assert traces[1] == [
            ("ifetch", program.code_base + pc * program.instruction_bytes)
            for pc in fetched]

    @pytest.mark.parametrize("signature", (("mem", "branch", "ifetch"), ()),
                             ids=("hooked", "hookless"))
    def test_checkpoint_restore_between_runs(self, signature):
        """``restore`` replaces the memory; the next run must read and
        write the new one."""
        program = _self_loop_program(LOOP_TOPS["one-fetch-block"])
        machines = tuple(engine(program, Memory()) for engine in ENGINES)
        traces = [HookTrace(machine) for machine in machines]
        checkpoint = FunctionalCheckpoint.capture(machines[0])
        for count in (100, 150):
            for machine, trace in zip(machines, traces):
                machine.run(count, **_hooks(trace, signature))
            assert machine_state(machines[0]) == machine_state(machines[1])
            for machine in machines:
                checkpoint.restore(machine)
        assert traces[0].events == traces[1].events

    @pytest.mark.parametrize("promote_after", (1, 10**9),
                             ids=("blocks", "singles"))
    def test_timing_checkpoint_restore_between_runs(self, promote_after,
                                                    monkeypatch):
        from repro.timing import blocks as timing_blocks
        from tests.test_timing_blocks import Pair

        monkeypatch.setattr(timing_blocks, "PROMOTE_AFTER", promote_after)
        program = _self_loop_program(LOOP_TOPS["one-fetch-block"])
        pair = Pair(program, Memory())
        checkpoint = FunctionalCheckpoint.capture(
            pair.simulators[0].machine)
        for count in (100, 150):
            pair.run(count)
            for simulator in pair.simulators:
                checkpoint.restore(simulator.machine)


class TestHookVisibleState:
    """Hooks read `machine.pc` and `machine.instructions_retired`."""

    @pytest.mark.parametrize("signature", (
        ("mem",), ("branch",), ("mem", "branch"), ("mem", "branch", "ifetch"),
    ))
    @pytest.mark.parametrize("name", PAPER_WORKLOADS)
    def test_state_seen_by_hooks_matches_scalar(self, name, signature):
        workload = build_workload(name, mem_scale=1, seed=11)
        machines = [engine(workload.program, workload.memory.copy())
                    for engine in ENGINES]
        traces = [HookTrace(machine) for machine in machines]
        for chunk in (700, 3000, 1, 2500):
            for machine, trace in zip(machines, traces):
                machine.run(chunk, **_hooks(trace, signature))
        assert traces[0].events == traces[1].events
        assert machine_state(machines[0]) == machine_state(machines[1])

    @pytest.mark.parametrize("name", ("gcc", "parser"))
    def test_emitted_tables_leave_callables_their_state(self, name):
        """After the skip log's and functional warming's emitted blocks
        ran on one program object, callable hooks still see the state
        ``step()`` leaves before every call."""
        from repro.branch import BranchPredictor
        from repro.cache import MemoryHierarchy
        from repro.core import ReverseStateReconstruction
        from repro.harness import scale_from_env
        from repro.warmup import resolve_method
        from repro.warmup.base import SimulationContext, warming_hooks

        workload = build_workload(name, mem_scale=1, seed=11)
        configs = scale_from_env(default="ci").configs()
        for method in (ReverseStateReconstruction(0.2),
                       resolve_method("S$BP")):
            method.bind(SimulationContext(
                machine=workload.make_machine(),
                hierarchy=MemoryHierarchy(configs.hierarchy),
                predictor=BranchPredictor(configs.predictor)))
            method.skip(4000)
        machines = [engine(workload.program, workload.memory.copy())
                    for engine in ENGINES]
        traces = [HookTrace(machine) for machine in machines]
        for chunk in (700, 3000, 1, 2500):
            for machine, trace in zip(machines, traces):
                machine.run(chunk, **_hooks(trace, ("mem", "branch",
                                                    "ifetch")))
        assert traces[0].events == traces[1].events
        warm = type(warming_hooks(MemoryHierarchy(configs.hierarchy),
                                  BranchPredictor(configs.predictor))[
            "emitter"]).kind
        assert {("log", True, True, 16), (warm, True, True, 16),
                ("hooks", True, True, 16)} <= set(
            predecode_program(workload.program).blocks)

    @pytest.mark.parametrize("name", PAPER_WORKLOADS)
    def test_simpoint_bbv_matches_scalar(self, name):
        import numpy as np

        from repro.simpoint.bbv import profile_bbv

        workload = build_workload(name, mem_scale=1)
        with reference_engine():
            reference = profile_bbv(workload, 24_000, 2_000).vectors
        production = profile_bbv(workload, 24_000, 2_000).vectors
        assert np.array_equal(reference, production)


def _wild_programs():
    """Programs that leave their instruction range, by name."""
    def jr(b):
        b.li(1, 1000)
        b.jr(1)

    def callr(b):
        b.li(1, 1 << 40)
        b.callr(1)

    def ret(b):
        b.li(31, 5)
        b.ret()

    def fall_off(b):
        b.addi(1, 1, 1)
        b.addi(2, 2, 2)

    programs = {}
    for emit in (jr, callr, ret, fall_off):
        b = ProgramBuilder(name=f"wild-{emit.__name__}")
        b.nop()
        b.nop()
        emit(b)
        programs[emit.__name__] = b.build()
    return programs


class TestWildPc:
    @pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
    @pytest.mark.parametrize("kind", ("jr", "callr", "ret", "fall_off"))
    def test_run_raises_value_error(self, kind, engine):
        from repro.functional import Memory

        program = _wild_programs()[kind]
        machine = engine(program, Memory())
        with pytest.raises(ValueError) as caught:
            machine.run(100, mem_hook=lambda *a: None,
                        branch_hook=lambda *a: None)
        message = str(caught.value)
        assert f"wild-{kind}" in message
        assert str(machine.pc) in message
        assert f"{len(program)} instructions" in message
        assert machine.pc >= len(program)
        assert machine.instructions_retired == len(program)
        with pytest.raises(ValueError, match=f"wild-{kind}"):
            machine.step()

    @pytest.mark.parametrize("kind", ("jr", "ret", "fall_off"))
    def test_timing_run_raises_value_error(self, kind):
        from repro.branch import BranchPredictor, PredictorConfig
        from repro.cache import MemoryHierarchy, paper_hierarchy_config
        from repro.functional import Memory
        from repro.timing import TimingSimulator

        program = _wild_programs()[kind]
        simulator = TimingSimulator(
            FunctionalMachine(program, Memory()),
            MemoryHierarchy(paper_hierarchy_config(scale=16)),
            BranchPredictor(PredictorConfig(1024, 256, 8)))
        with pytest.raises(ValueError, match=f"wild-{kind}"):
            simulator.run(100)


class TestPickledProgram:
    def test_pickle_drops_predecode_and_blocks(self):
        workload = build_workload("gcc", mem_scale=1, seed=5)
        machine = workload.make_machine()
        trace = HookTrace(machine)
        machine.run(5000, mem_hook=trace.mem_hook,
                    branch_hook=trace.branch_hook,
                    ifetch_hook=trace.ifetch_hook)
        assert predecode_program(workload.program).blocks
        data = pickle.dumps(workload)
        assert b"_predecoded" not in data
        assert vars(workload.program)["_predecoded"].blocks
        clone = pickle.loads(data)
        assert "_predecoded" not in vars(clone.program)
        machines = (workload.make_machine(), clone.make_machine())
        traces = [HookTrace(machine) for machine in machines]
        for machine, trace in zip(machines, traces):
            machine.run(8000, mem_hook=trace.mem_hook,
                        branch_hook=trace.branch_hook,
                        ifetch_hook=trace.ifetch_hook)
        assert machine_state(machines[0]) == machine_state(machines[1])
        assert traces[0].events == traces[1].events
