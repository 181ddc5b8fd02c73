"""The detailed ("hot") timing simulator.

A dependence- and resource-constrained model of the paper's out-of-order
superscalar core.  Instructions are executed and timed in program order,
one translated block at a time (:mod:`repro.timing.blocks`): each block
executes its instructions on the functional machine's state and assigns
each one fetch, dispatch, issue, complete, and retire cycles constrained
by:

- fetch bandwidth (8/cycle) and instruction-cache latency per fetched block;
- front-end depth (fetch-to-dispatch stages of the 7-stage pipe);
- ROB (64), issue-queue (32) and LSQ (64) capacities;
- issue (4/cycle) and retire (4/cycle) bandwidth, in-order retirement;
- register dependences through per-register ready times;
- data-cache latency for loads (stores drain through a store buffer);
- branch prediction: mispredicted control transfers redirect fetch after
  resolution plus the minimum 5-cycle penalty; at most eight unresolved
  branches may be in flight (architectural checkpoints).

This is a simplification of a full cycle-by-cycle model (see DESIGN.md §2):
it captures exactly the mechanisms through which stale cache and branch-
predictor state perturb IPC, which is what the paper's warm-up comparison
measures.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..branch import BranchPredictor
from ..cache import MemoryHierarchy
from ..functional import FunctionalMachine
from ..isa import NUM_REGISTERS
from .blocks import timing_block_table
from .config import CoreConfig, paper_core_config


@dataclass
class TimingResult:
    """Outcome of one hot-simulation run.

    When the run was started with ``measure_after > 0`` (SMARTS-style
    detailed warming), `instructions`/`cycles` still cover the whole run
    but `measured_instructions`/`measured_cycles` cover only the portion
    after the ramp, and :attr:`ipc` is computed from the measured window.
    """

    instructions: int
    cycles: int
    measured_instructions: int = -1
    measured_cycles: int = -1

    def __post_init__(self) -> None:
        if self.measured_instructions < 0:
            self.measured_instructions = self.instructions
        if self.measured_cycles < 0:
            self.measured_cycles = self.cycles

    @property
    def ipc(self) -> float:
        """Instructions retired per cycle over the measured window."""
        if self.measured_cycles <= 0:
            return 0.0
        return self.measured_instructions / self.measured_cycles


class TimingSimulator:
    """Drives a :class:`FunctionalMachine` through the detailed core model.

    Cache and branch-predictor state persist across calls to :meth:`run`
    (that persistence *is* the subject of the paper); pipeline occupancy,
    bus schedules, and the cycle counter restart at zero for each run.
    """

    def __init__(
        self,
        machine: FunctionalMachine,
        hierarchy: MemoryHierarchy,
        predictor: BranchPredictor,
        config: CoreConfig | None = None,
    ) -> None:
        self.machine = machine
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.config = config if config is not None else paper_core_config()

    def run(self, max_instructions: int, pre_branch_hook=None,
            measure_after: int = 0) -> TimingResult:
        """Simulate up to `max_instructions` in detail; return IPC data.

        Runs translated code (:mod:`repro.timing.blocks`): a block per
        iteration where a start has been entered often enough to be
        compiled whole, one instruction per iteration elsewhere and
        inside a block (a run that starts where the last one stopped,
        or whose end or `measure_after` boundary falls inside one).

        Parameters
        ----------
        max_instructions:
            Number of instructions to retire before stopping.
        pre_branch_hook:
            Optional callable ``hook(pc_index, inst)`` invoked before each
            control transfer is predicted.  Used by on-demand warm-up
            methods (paper §3.2) to reconstruct predictor entries lazily.
        measure_after:
            SMARTS-style *detailed warming*: the first `measure_after`
            instructions are simulated in full detail but excluded from
            the measured IPC, hiding the empty-pipeline/fresh-bus ramp
            that a mid-stream cluster would not see.
        """
        config = self.config
        machine = self.machine
        hierarchy = self.hierarchy
        # The cycle counter restarts at zero each run; bus schedules from a
        # previous cluster would otherwise stall the whole pipeline.
        hierarchy.l1_bus.rewind()
        hierarchy.l2_bus.rewind()
        if max_instructions <= 0 or machine.halted:
            return TimingResult(instructions=0, cycles=1)

        program = machine.program
        per_block = max(
            1, hierarchy.l1i.config.line_bytes // program.instruction_bytes
        )
        table = timing_block_table(program, per_block, config.rob_entries)
        retire_width = config.retire_width
        env = (machine, machine.registers, machine.memory._words,
               program.instructions, [0] * NUM_REGISTERS,
               [-1] * config.rob_entries, [-1] * config.issue_queue_entries,
               [-1] * config.lsq_entries, [-1] * config.max_inflight_branches,
               hierarchy.timed_access, self.predictor.predict_and_update,
               pre_branch_hook, config.fetch_width, config.dispatch_width,
               config.issue_width, retire_width, config.frontend_depth,
               config.mispredict_penalty, config.rob_entries)
        pc = machine.pc
        # (pc, the fetch, dispatch, issue and retire limiters, next fetch
        # cycle, current fetch block): see repro.timing.blocks.
        state = (pc, -1, -1, -1, -1, 0, -1)
        start = done = machine.instructions_retired
        stop = start + max_instructions
        ramped = 0 < measure_after < max_instructions
        bound = start + measure_after if ramped else stop
        ramp_boundary_cycle = 0
        halted = False
        starts = table.starts
        while True:
            # Inside a block (where the last run, or the ramp, stopped)
            # and up to a bound inside one, step one instruction at a time.
            stepping = pc < len(starts) and not starts[pc]
            while done < bound:
                if stepping:
                    block, length = table.single(pc)
                else:
                    block, length = table[pc]
                    if not 0 < length <= bound - done:
                        if length < 0:
                            block, length = table.enter(pc)
                        if not length:
                            # HALT; step() raises for a pc outside the
                            # program.
                            state = block(env, state, done)
                            done += 1
                            halted = True
                            break
                        if length > bound - done:
                            block, length = table.single(pc)
                            stepping = True
                state = block(env, state, done)
                pc = state[0]
                done += length
                if stepping:
                    stepping = pc < len(starts) and not starts[pc]
            if halted or bound == stop:
                break
            ramp_boundary_cycle = state[4] // retire_width
            bound = stop
        machine.pc = pc
        machine.instructions_retired = done

        retired = done - start
        last_retire = max(state[4] // retire_width, 0)
        if ramped and retired > measure_after:
            return TimingResult(
                instructions=retired,
                cycles=last_retire + 1,
                measured_instructions=retired - measure_after,
                measured_cycles=last_retire - ramp_boundary_cycle,
            )
        return TimingResult(instructions=retired, cycles=last_retire + 1)
