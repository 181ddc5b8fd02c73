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
from ..cache import MemoryHierarchy, mru_names
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

    def run(self, max_instructions: int,
            measure_after: int = 0) -> TimingResult:
        """Simulate up to `max_instructions` in detail; return IPC data.

        Runs translated code (:mod:`repro.timing.blocks`): a block per
        iteration where a start has been entered often enough to be
        compiled whole (a self-loop goes round inside its block), one
        instruction per iteration elsewhere and inside a block (a run
        that starts where the last one stopped, or whose end falls
        inside one).  L1 read hits the blocks counted are added to the
        L1 statistics before ``run`` returns or raises.

        Parameters
        ----------
        max_instructions:
            Number of instructions to retire before stopping.
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
        l1i, l1d = hierarchy.l1i, hierarchy.l1d
        table = timing_block_table(program, l1i.config, config)
        retire_width = config.retire_width
        rob_entries = config.rob_entries
        predictor = self.predictor
        # The ROB ring holds each instruction's retire cycle until the
        # instruction `rob_entries` later dispatches.
        rob = [-1] * rob_entries
        # L1 read hits on the MRU way, counted in the blocks (L1I first).
        hits = [0, 0]
        env = (machine, machine.registers, machine.memory._words,
               program.instructions, [0] * NUM_REGISTERS, rob,
               [-1] * config.issue_queue_entries,
               [-1] * config.lsq_entries, [-1] * config.max_inflight_branches,
               hierarchy.timed_access, predictor.predict_and_update,
               predictor.conditional, hits,
               l1i.rows, l1i.config.hit_latency,
               *mru_names(l1d), l1d.config.hit_latency,
               config.fetch_width, config.dispatch_width,
               config.issue_width, retire_width, config.frontend_depth,
               config.mispredict_penalty, rob_entries,
               config.issue_queue_entries)
        pc = machine.pc
        # (pc, the fetch, dispatch, issue and retire limiters, next fetch
        # cycle, current fetch block): see repro.timing.blocks.
        state = (pc, -1, -1, -1, -1, 0, -1)
        start = done = machine.instructions_retired
        stop = start + max_instructions
        ramped = 0 < measure_after < max_instructions
        # The retired count at the end of the ramp, while it is ahead.
        # Blocks run across it: its retire cycle stays in the ROB ring
        # until `rob_entries` more instructions dispatch, and a block
        # holds no more than that (a loop stops after the pass that
        # crosses it).
        ramp = start + measure_after if ramped else stop + 1
        ramp_boundary_cycle = 0
        starts = table.starts
        stepping = pc < len(starts) and not starts[pc]
        try:
            while done < stop:
                # Inside a block (where the last run stopped) and up to
                # the run's end inside one, step one instruction at a
                # time.
                if stepping:
                    block, length = table.single(pc)
                else:
                    block, length = table[pc]
                    if not 0 < length <= stop - done:
                        if length == -1:
                            block, length = table.enter(pc)
                        if length < 0 and done - length <= stop:
                            # A self-loop goes round while whole passes
                            # fit, and during the ramp until it is passed.
                            last = stop + length
                            if ramp <= last:
                                last = ramp - 1
                            state, done = block(env, state, done, last)
                            pc = state[0]
                            length = 0  # the loop counted its passes
                        elif not length:
                            # HALT; step() raises for a pc outside the
                            # program.
                            state = block(env, state, done)
                            done += 1
                            break
                        elif abs(length) > stop - done:
                            block, length = table.single(pc)
                            stepping = True
                if length:
                    state = block(env, state, done)
                    pc = state[0]
                    done += length
                    if stepping:
                        stepping = pc < len(starts) and not starts[pc]
                if done >= ramp:
                    ramp_boundary_cycle = rob[(ramp - 1) % rob_entries]
                    ramp = stop + 1
        finally:
            l1i.stats.hits += hits[0]
            l1d.stats.hits += hits[1]
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
