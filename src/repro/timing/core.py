"""The detailed ("hot") timing simulator.

A dependence- and resource-constrained model of the paper's out-of-order
superscalar core.  Instructions are processed in program order by driving
the functional machine one step at a time; each instruction is assigned
fetch, dispatch, issue, complete, and retire cycles constrained by:

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
from ..functional.predecode import predecode_program
from ..isa import NUM_REGISTERS
from .config import CoreConfig, paper_core_config
from .resources import BandwidthLimiter, FifoCapacity, PooledCapacity


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
        program = machine.program
        instructions = program.instructions
        hierarchy = self.hierarchy
        predictor = self.predictor
        step = machine.step

        # Predecoded columns replace the per-instruction attribute/method
        # lookups (is_mem/is_control/is_load/is_store, latency,
        # destination(), sources()) with list indexing; the Instruction
        # object itself is only materialized for control transfers, which
        # the branch hook and predictor interfaces take by object.
        decoded = predecode_program(program)
        is_mem_col = decoded.is_mem
        is_control_col = decoded.is_control
        is_load_col = decoded.is_load
        is_store_col = decoded.is_store
        latency_col = decoded.latency
        dest_col = decoded.dest
        sources_col = decoded.sources

        # The cycle counter restarts at zero each run; bus schedules from a
        # previous cluster would otherwise stall the whole pipeline.
        hierarchy.l1_bus.rewind()
        hierarchy.l2_bus.rewind()

        fetch_limiter = BandwidthLimiter(config.fetch_width)
        dispatch_limiter = BandwidthLimiter(config.dispatch_width)
        issue_limiter = BandwidthLimiter(config.issue_width)
        retire_limiter = BandwidthLimiter(config.retire_width)
        rob = FifoCapacity(config.rob_entries)
        issue_queue = PooledCapacity(config.issue_queue_entries)
        lsq = PooledCapacity(config.lsq_entries)
        checkpoints = PooledCapacity(config.max_inflight_branches)

        reg_ready = [0] * NUM_REGISTERS
        frontend_depth = config.frontend_depth
        mispredict_penalty = config.mispredict_penalty
        instruction_bytes = program.instruction_bytes
        code_base = program.code_base
        insts_per_block = max(
            1, hierarchy.l1i.config.line_bytes // instruction_bytes
        )
        timed_access = hierarchy.timed_access

        next_fetch_cycle = 0
        current_fetch_block = -1
        previous_retire = 0
        last_retire = 0
        retired = 0
        ramp_boundary_cycle = 0

        while retired < max_instructions and not machine.halted:
            pc = machine.pc
            # ---- execute architecturally --------------------------------
            # First, so a pc outside the program raises step()'s
            # ValueError before the columns are indexed with it; no
            # timing decision below reads machine state.
            result = step()
            retired += 1
            is_mem = is_mem_col[pc]
            is_control = is_control_col[pc]

            # ---- fetch ---------------------------------------------------
            fetch_ready = next_fetch_cycle
            fetch_block = pc // insts_per_block
            if fetch_block != current_fetch_block:
                current_fetch_block = fetch_block
                latency = timed_access(
                    code_base + pc * instruction_bytes, False, True,
                    fetch_ready,
                )
                fetch_ready += latency - 1  # a hit adds no bubble
            fetch_cycle = fetch_limiter.take(fetch_ready)

            # ---- dispatch ------------------------------------------------
            dispatch_ready = fetch_cycle + frontend_depth
            dispatch_ready = rob.acquire(dispatch_ready)
            dispatch_ready = issue_queue.acquire(dispatch_ready)
            if is_mem:
                dispatch_ready = lsq.acquire(dispatch_ready)
            if is_control:
                dispatch_ready = checkpoints.acquire(dispatch_ready)
            dispatch_cycle = dispatch_limiter.take(dispatch_ready)

            if result.halted:
                last_retire = max(last_retire, dispatch_cycle + 1)
                break

            # ---- issue ---------------------------------------------------
            ready = dispatch_cycle + 1
            for source in sources_col[pc]:
                source_ready = reg_ready[source]
                if source_ready > ready:
                    ready = source_ready
            issue_cycle = issue_limiter.take(ready)
            issue_queue.release_at(issue_cycle)

            # ---- complete ------------------------------------------------
            is_store = False
            if is_load_col[pc]:
                latency = timed_access(
                    result.mem_address, False, False, issue_cycle
                )
                complete = issue_cycle + latency
            elif is_store_col[pc]:
                # The store leaves the pipe once address+data are ready;
                # the write drains through the hierarchy in the background.
                is_store = True
                complete = issue_cycle + 1
                timed_access(result.mem_address, True, False, complete)
            else:
                complete = issue_cycle + latency_col[pc]

            destination = dest_col[pc]
            if destination >= 0:
                reg_ready[destination] = complete

            # ---- control resolution -------------------------------------
            if is_control:
                inst = instructions[pc]
                if pre_branch_hook is not None:
                    pre_branch_hook(pc, inst)
                mispredicted = predictor.predict_and_update(
                    pc, inst, result.taken, result.next_index
                )
                checkpoints.release_at(complete)
                if mispredicted:
                    next_fetch_cycle = complete + mispredict_penalty
                    current_fetch_block = -1  # refetch after redirect
                elif result.taken:
                    # Even a correctly predicted taken transfer ends the
                    # current fetch group.
                    next_fetch_cycle = fetch_cycle + 1

            # ---- retire --------------------------------------------------
            retire_ready = complete + 1
            if previous_retire > retire_ready:
                retire_ready = previous_retire
            retire_cycle = retire_limiter.take(retire_ready)
            previous_retire = retire_cycle
            rob.release_at(retire_cycle)
            if is_mem:
                lsq.release_at(retire_cycle if is_store else complete)
            last_retire = retire_cycle
            if retired == measure_after:
                ramp_boundary_cycle = retire_cycle

        total_cycles = last_retire + 1
        if measure_after > 0 and retired > measure_after:
            return TimingResult(
                instructions=retired,
                cycles=total_cycles,
                measured_instructions=retired - measure_after,
                measured_cycles=last_retire - ramp_boundary_cycle,
            )
        return TimingResult(instructions=retired, cycles=total_cycles)
