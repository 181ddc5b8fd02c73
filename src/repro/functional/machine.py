"""The functional simulator.

The functional machine maintains architecturally correct state (registers,
PC, memory) regardless of how instructions are timed.  It plays three roles
in sampled simulation, mirroring the paper's §4:

1. *Cold* simulation — fast-forwarding between clusters while keeping
   architectural state correct.
2. The execution engine underneath *warm* simulation — warm-up methods
   attach hooks that observe memory references and branch outcomes.
3. The state underneath *hot* simulation — the timing core's translated
   blocks (:mod:`repro.timing.blocks`) execute on its registers and
   memory and time each retired instruction.

Performance notes: bulk execution (:meth:`FunctionalMachine.run`) runs
translated basic blocks (:mod:`repro.functional.blocks`), each compiled
once into a Python function with its operands baked in, because this is
the innermost loop of every experiment.  :meth:`FunctionalMachine.step`
remains the one-instruction reference semantics and the fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa import Opcode, Program, NUM_REGISTERS, LINK_REGISTER, STACK_POINTER
from .memory import Memory
from .blocks import Emitter, block_table, divide_signed, to_signed

_MASK64 = (1 << 64) - 1


@dataclass
class StepResult:
    """Everything the timing simulator needs to know about one instruction.

    A single instance is reused across steps to avoid per-instruction
    allocation; consumers must copy any field they want to keep.
    """

    index: int = 0          # instruction index executed
    next_index: int = 0     # architecturally correct next instruction index
    taken: bool = False     # for control instructions: was it taken?
    mem_address: int = -1   # effective byte address for LOAD/STORE, else -1
    halted: bool = False


class FunctionalMachine:
    """Architectural-state interpreter for one :class:`Program`.

    Parameters
    ----------
    program:
        The workload image to execute.
    memory:
        Optional pre-initialised memory (workload generators seed arrays).
    """

    def __init__(self, program: Program, memory: Memory | None = None) -> None:
        self.program = program
        self.memory = memory if memory is not None else Memory()
        self.registers: list[int] = [0] * NUM_REGISTERS
        self.registers[STACK_POINTER] = program.stack_base
        self.pc = program.entry
        self.halted = False
        self.instructions_retired = 0
        self._step_result = StepResult()
        #: Ifetch-continuity marker: ``(per_block, block)`` of the last
        #: instruction block fetched by an *observed* :meth:`run` (one
        #: with an ``ifetch_hook``).  Carried across calls so a phase
        #: boundary (warm-up prefix -> skip, skip -> skip) does not
        #: re-report a block the previous phase already fetched; see
        #: :meth:`invalidate_fetch_block` for when it resets.
        self._last_fetch: tuple[int, int] = (0, -1)

    def invalidate_fetch_block(self) -> None:
        """Forget the ifetch-continuity marker.

        Called whenever execution discontinuously moves (a
        :class:`~repro.functional.checkpoint.FunctionalCheckpoint`
        restore) or when instructions were fetched without an observer
        (a hook-less :meth:`run`), so the next observed run re-reports
        its first block instead of wrongly deduplicating it.
        """
        self._last_fetch = (0, -1)

    # -- single stepping ------------------------------------------------------

    def step(self) -> StepResult:
        """Execute exactly one instruction; return its :class:`StepResult`.

        The returned object is reused by subsequent calls.  Raises
        ``ValueError`` when the pc is outside the program (a wild
        JR/CALLR/RET target, or running off the end without a HALT).
        """
        result = self._step_result
        if self.halted:
            result.halted = True
            return result

        regs = self.registers
        pc = self.pc
        try:
            inst = self.program.instructions[pc]
        except IndexError:
            program = self.program
            raise ValueError(
                f"program {program.name!r} reached instruction index {pc}, "
                f"outside its {len(program)} instructions") from None
        op = inst.opcode
        next_pc = pc + 1
        taken = False
        mem_address = -1

        if op is Opcode.ADD:
            if inst.rd:
                regs[inst.rd] = (regs[inst.rs1] + regs[inst.rs2]) & _MASK64
        elif op is Opcode.ADDI:
            if inst.rd:
                regs[inst.rd] = (regs[inst.rs1] + inst.imm) & _MASK64
        elif op is Opcode.LOAD:
            mem_address = (regs[inst.rs1] + inst.imm) & _MASK64
            if inst.rd:
                regs[inst.rd] = self.memory.load(mem_address)
        elif op is Opcode.STORE:
            mem_address = (regs[inst.rs1] + inst.imm) & _MASK64
            self.memory.store(mem_address, regs[inst.rs2])
        elif op is Opcode.BEQ:
            taken = regs[inst.rs1] == regs[inst.rs2]
            if taken:
                next_pc = inst.target
        elif op is Opcode.BNE:
            taken = regs[inst.rs1] != regs[inst.rs2]
            if taken:
                next_pc = inst.target
        elif op is Opcode.BLT:
            taken = to_signed(regs[inst.rs1]) < to_signed(regs[inst.rs2])
            if taken:
                next_pc = inst.target
        elif op is Opcode.BGE:
            taken = to_signed(regs[inst.rs1]) >= to_signed(regs[inst.rs2])
            if taken:
                next_pc = inst.target
        elif op is Opcode.SUB:
            if inst.rd:
                regs[inst.rd] = (regs[inst.rs1] - regs[inst.rs2]) & _MASK64
        elif op is Opcode.MUL:
            if inst.rd:
                regs[inst.rd] = (regs[inst.rs1] * regs[inst.rs2]) & _MASK64
        elif op is Opcode.DIV:
            if inst.rd:
                regs[inst.rd] = divide_signed(regs[inst.rs1], regs[inst.rs2])
        elif op is Opcode.AND:
            if inst.rd:
                regs[inst.rd] = regs[inst.rs1] & regs[inst.rs2]
        elif op is Opcode.OR:
            if inst.rd:
                regs[inst.rd] = regs[inst.rs1] | regs[inst.rs2]
        elif op is Opcode.XOR:
            if inst.rd:
                regs[inst.rd] = regs[inst.rs1] ^ regs[inst.rs2]
        elif op is Opcode.SLL:
            if inst.rd:
                regs[inst.rd] = (regs[inst.rs1] << (regs[inst.rs2] & 63)) & _MASK64
        elif op is Opcode.SRL:
            if inst.rd:
                regs[inst.rd] = regs[inst.rs1] >> (regs[inst.rs2] & 63)
        elif op is Opcode.SLT:
            if inst.rd:
                regs[inst.rd] = int(
                    to_signed(regs[inst.rs1]) < to_signed(regs[inst.rs2])
                )
        elif op is Opcode.ANDI:
            if inst.rd:
                regs[inst.rd] = regs[inst.rs1] & (inst.imm & _MASK64)
        elif op is Opcode.ORI:
            if inst.rd:
                regs[inst.rd] = regs[inst.rs1] | (inst.imm & _MASK64)
        elif op is Opcode.XORI:
            if inst.rd:
                regs[inst.rd] = regs[inst.rs1] ^ (inst.imm & _MASK64)
        elif op is Opcode.SLTI:
            if inst.rd:
                regs[inst.rd] = int(to_signed(regs[inst.rs1]) < inst.imm)
        elif op is Opcode.SLLI:
            if inst.rd:
                regs[inst.rd] = (regs[inst.rs1] << (inst.imm & 63)) & _MASK64
        elif op is Opcode.SRLI:
            if inst.rd:
                regs[inst.rd] = regs[inst.rs1] >> (inst.imm & 63)
        elif op is Opcode.LI:
            if inst.rd:
                regs[inst.rd] = inst.imm & _MASK64
        elif op is Opcode.JMP:
            taken = True
            next_pc = inst.target
        elif op is Opcode.CALL:
            taken = True
            regs[LINK_REGISTER] = next_pc
            next_pc = inst.target
        elif op is Opcode.CALLR:
            taken = True
            regs[LINK_REGISTER] = next_pc
            next_pc = regs[inst.rs1]
        elif op is Opcode.RET:
            taken = True
            next_pc = regs[LINK_REGISTER]
        elif op is Opcode.JR:
            taken = True
            next_pc = regs[inst.rs1]
        elif op is Opcode.NOP:
            pass
        elif op is Opcode.HALT:
            self.halted = True
            result.index = pc
            result.next_index = pc
            result.taken = False
            result.mem_address = -1
            result.halted = True
            self.instructions_retired += 1
            return result
        else:  # pragma: no cover - all opcodes handled above
            raise RuntimeError(f"unimplemented opcode {op!r}")

        self.pc = next_pc
        self.instructions_retired += 1
        result.index = pc
        result.next_index = next_pc
        result.taken = taken
        result.mem_address = mem_address
        result.halted = False
        return result

    # -- bulk execution -------------------------------------------------------

    def run(
        self,
        count: int,
        mem_hook=None,
        branch_hook=None,
        ifetch_hook=None,
        ifetch_block_bytes: int = 64,
        emitter=None,
    ) -> int:
        """Execute up to `count` instructions; return how many retired.

        Executes one translated block (:mod:`repro.functional.blocks`)
        per iteration: its ALU ops, memory references and hook calls run
        inline in scalar order, and the ifetch check happens once at its
        entry.  A block that branches back to its own entry goes round
        inside its function while a whole pass fits in what is left of
        `count`.  HALT, poisoned predecode slots, a pc outside the program
        and a block longer than what is left of `count` go through
        :meth:`run_scalar`, so that bookkeeping (and the wild-pc error)
        lives in :meth:`step` alone.  The result is bit-identical to
        :meth:`run_scalar` — architectural state, hook-call sequences,
        the machine state each mem and branch hook sees, and ifetch
        continuity.  Raises ``ValueError`` when execution reaches a pc
        outside the program.

        With an `emitter`, the blocks run its code for the hooks' events
        instead of calling them, and skip the ``pc`` and
        ``instructions_retired`` writes: emitted code (the skip log's
        appends, functional warming's calls) never reads the machine.
        The hooks must record the same events, since :meth:`run_scalar`
        calls them for what the blocks leave to it.  Whatever the emitted
        code counted instead of recording is settled by
        :meth:`Emitter.fold <repro.functional.blocks.Emitter.fold>` before
        ``run`` returns or raises.

        Parameters
        ----------
        count:
            Maximum number of instructions to execute.
        mem_hook:
            Called as ``mem_hook(pc_index, next_pc_index, address, is_store)``
            for every LOAD/STORE.
        branch_hook:
            Called as ``branch_hook(pc_index, next_pc_index, inst, taken)``
            for every control-transfer instruction (conditional or not).
        ifetch_hook:
            Called as ``ifetch_hook(byte_address)`` whenever execution moves
            to a different `ifetch_block_bytes`-sized code block.  Repeated
            fetches within one block are filtered because they cannot change
            cache state; see DESIGN.md §2.  The filter carries across
            calls: a new call continuing in the block the previous
            observed call ended in does not re-report it (the controller
            invokes :meth:`run` once per phase, and a phase boundary is
            not a fetch).
        emitter:
            An :class:`~repro.functional.blocks.Emitter` for the hooks.
        """
        if count <= 0 or self.halted:
            return 0
        program = self.program
        per_block = max(1, ifetch_block_bytes // program.instruction_bytes)
        if emitter is None:
            emitter = Emitter(mem_hook, branch_hook, ifetch_hook)
        blocks = block_table(program, type(emitter), mem_hook is not None,
                             branch_hook is not None,
                             per_block if ifetch_hook is not None else 0)
        hooks = emitter.names
        stored_per_block, last_fetch = self._last_fetch
        if stored_per_block != per_block:
            last_fetch = -1
        regs = self.registers
        # Bound per call: a checkpoint restore replaces the memory.
        words = self.memory._words
        pc = self.pc
        start = retired = self.instructions_retired
        stop = start + count
        try:
            while retired < stop:
                block, length, last_block = blocks[pc]
                if not 0 < length <= stop - retired:
                    if length < 0 and retired - length <= stop:
                        # A self-loop goes round while whole passes fit.
                        pc, retired = block(self, regs, words, hooks,
                                            retired, last_fetch,
                                            stop + length)
                        last_fetch = last_block
                        continue
                    self.pc = pc
                    self.instructions_retired = retired
                    self._last_fetch = (per_block, last_fetch)
                    self.run_scalar(stop - retired if length else 1,
                                    mem_hook, branch_hook, ifetch_hook,
                                    ifetch_block_bytes)
                    pc = self.pc
                    retired = self.instructions_retired
                    last_fetch = self._last_fetch[1]
                    if self.halted:
                        break
                    continue
                pc = block(self, regs, words, hooks, retired, last_fetch)
                last_fetch = last_block
                retired += length
        finally:
            emitter.fold()
        self.pc = pc
        self.instructions_retired = retired
        if ifetch_hook is not None:
            self._last_fetch = (per_block, last_fetch)
        else:
            self.invalidate_fetch_block()
        return retired - start

    def run_scalar(
        self,
        count: int,
        mem_hook=None,
        branch_hook=None,
        ifetch_hook=None,
        ifetch_block_bytes: int = 64,
        emitter=None,
    ) -> int:
        """The per-step reference engine (see :meth:`run` for the contract).

        Every instruction goes through :meth:`step`; hooks fire inline,
        and `emitter` is ignored: the callables record the same events.
        Kept as the semantic baseline :meth:`run` is differentially
        fuzzed against, and as its fallback.
        """
        executed = 0
        step = self.step
        program = self.program
        instruction_bytes = program.instruction_bytes
        code_base = program.code_base
        per_block = max(1, ifetch_block_bytes // instruction_bytes)
        stored_per_block, stored_block = self._last_fetch
        last_fetch_block = stored_block if stored_per_block == per_block else -1
        pc_before = -1

        while executed < count and not self.halted:
            pc_before = self.pc
            if ifetch_hook is not None:
                fetch_block = pc_before // per_block
                if fetch_block != last_fetch_block:
                    last_fetch_block = fetch_block
                    ifetch_hook(code_base + pc_before * instruction_bytes)
            result = step()
            executed += 1
            if result.halted:
                break
            if result.mem_address >= 0 and mem_hook is not None:
                mem_hook(
                    result.index, result.next_index,
                    result.mem_address,
                    program.instructions[result.index].is_store,
                )
            if branch_hook is not None:
                inst = program.instructions[result.index]
                if inst.is_control:
                    branch_hook(
                        result.index, result.next_index, inst, result.taken
                    )
        if executed:
            if ifetch_hook is not None:
                # The last executed instruction's block is, by induction,
                # the last one reported; remember it for the next phase.
                self._last_fetch = (per_block, pc_before // per_block)
            else:
                # Blocks were fetched unobserved; continuity is broken.
                self.invalidate_fetch_block()
        return executed
