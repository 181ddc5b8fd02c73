"""The reference engine: scalar twins of the production hot paths.

The simulator has one engine.  Cold and warm execution run translated
basic blocks (:meth:`~repro.functional.FunctionalMachine.run`), hot
simulation runs translated timing blocks
(:meth:`~repro.timing.TimingSimulator.run`), and the reverse scans of
cache and BTB reconstruction pre-filter their winners with numpy.  This
module keeps the straightforward versions those paths are checked
against, bit for bit:

- :class:`ScalarMachine` — a machine whose ``run`` is the per-step
  :meth:`~repro.functional.FunctionalMachine.run_scalar` loop;
- :func:`step_driven_run` — the timing core as one loop over
  ``step()``, timing each instruction through the resource objects
  :class:`BandwidthLimiter`, :class:`FifoCapacity` and
  :class:`PooledCapacity` (a heap, also for the issue queue, which the
  translated blocks keep as a ring), with every cache access a
  ``timed_access`` call and every transfer a
  :func:`reference_predict_and_update` call;
- :func:`scalar_cache_scan` — the paper's literal reverse cache scan,
  one ``reconstruct_reference`` call per logged reference and level;
- :func:`scalar_btb_scan` — one ``btb.reconstruct`` call per claim,
  newest first;
- :func:`reference_cache_access` — ``Cache.access`` as an
  ``enumerate`` scan of the set that allocates a
  :class:`ReferenceAccessResult` per access and computes the evicted
  address eagerly;
- :func:`reference_timed_access`, :func:`reference_l2_fill` and
  :func:`reference_warm_access` — ``MemoryHierarchy``'s access paths
  over :func:`reference_cache_access`, branching on its result object;
- :func:`chained_predictor_update` — ``BranchPredictor.update`` as
  the call chain through the per-structure training methods
  :func:`pht_update` (:func:`push_history`, ``update_counter``),
  :func:`btb_update`, :func:`ras_push` and :func:`ras_pop`;
- :func:`reference_predict_and_update` —
  ``BranchPredictor.predict_and_update`` as ``predict``, the statistics
  and ``update``, for conditional branches too (production runs them
  through ``BranchPredictor.conditional`` in one frame);
- :func:`uncached_warm_prefix` — ``SimulationStack.warm_prefix`` as a
  plain call of ``steady_state_prefix``, which neither reads nor
  writes the workload's prefix memo;
- :func:`reference_engine` — a context manager that runs whole
  simulations on all of them;
- :func:`sampled_run_record` — what two engines' runs of one sampled
  simulation are compared on.
"""

from __future__ import annotations

import contextlib
import heapq
from collections import deque
from dataclasses import dataclass
from unittest import mock

from repro.branch import BranchPredictor, update_counter
from repro.cache import Cache, MemoryHierarchy, WritePolicy
from repro.core.branch_reconstruct import ReverseBranchReconstructor
from repro.core.cache_reconstruct import ReverseCacheReconstructor
from repro.core.source import REF_INSTRUCTION, REF_STORE
from repro.functional import FunctionalMachine
from repro.functional.predecode import predecode_program
from repro.harness import parallel
from repro.harness.executor import ProcessPool
from repro.isa import NUM_REGISTERS
from repro.sampling import SampledSimulator, pipeline
from repro.sampling.controller import SimulationStack, steady_state_prefix
from repro.timing import TimingResult, TimingSimulator
from repro.warmup import resolve_method


class ScalarMachine(FunctionalMachine):
    """A functional machine whose bulk execution steps one instruction
    at a time."""

    run = FunctionalMachine.run_scalar


class BandwidthLimiter:
    """At most `width` events per cycle.

    `take(cycle)` returns the earliest cycle >= `cycle` with a free slot
    and consumes that slot.  Requests arrive in program order, so a
    request never precedes the current cycle by a full cycle boundary:
    the limiter tracks only the current cycle and its used slots, and
    serves an earlier request in the current cycle.
    """

    __slots__ = ("width", "_cycle", "_used")

    def __init__(self, width: int) -> None:
        self.width = width
        self._cycle = -1
        self._used = 0

    def take(self, cycle: int) -> int:
        if cycle > self._cycle:
            self._cycle = cycle
            self._used = 1
            return cycle
        if cycle < self._cycle:
            cycle = self._cycle
        if self._used < self.width:
            self._used += 1
            return cycle
        self._cycle = cycle + 1
        self._used = 1
        return cycle + 1

    def reset(self) -> None:
        self._cycle = -1
        self._used = 0


class FifoCapacity:
    """Capacity constraint for a structure freed in program order (ROB).

    `acquire(ready)` returns the earliest cycle >= `ready` at which a slot
    is free; `release_at(cycle)` records when the acquired slot will free.
    """

    __slots__ = ("capacity", "_release_times")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._release_times: deque[int] = deque()

    def acquire(self, ready: int) -> int:
        if len(self._release_times) >= self.capacity:
            oldest = self._release_times.popleft()
            if oldest + 1 > ready:
                ready = oldest + 1
        return ready

    def release_at(self, cycle: int) -> None:
        self._release_times.append(cycle)

    def occupancy(self) -> int:
        return len(self._release_times)

    def reset(self) -> None:
        self._release_times.clear()


class PooledCapacity:
    """Capacity constraint for a structure freed out of order (IQ, LSQ,
    branch checkpoints): the next free slot is the minimum release time."""

    __slots__ = ("capacity", "_release_times")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._release_times: list[int] = []

    def acquire(self, ready: int) -> int:
        if len(self._release_times) >= self.capacity:
            earliest = heapq.heappop(self._release_times)
            if earliest + 1 > ready:
                ready = earliest + 1
        return ready

    def release_at(self, cycle: int) -> None:
        heapq.heappush(self._release_times, cycle)

    def occupancy(self) -> int:
        return len(self._release_times)

    def reset(self) -> None:
        self._release_times.clear()


def step_driven_run(self, max_instructions: int, pre_branch_hook=None,
                    measure_after: int = 0) -> TimingResult:
    """Per-instruction twin of :meth:`TimingSimulator.run` (same
    contract): one ``step()``, then the instruction's fetch, dispatch,
    issue, complete and retire cycles."""
    config = self.config
    machine = self.machine
    program = machine.program
    instructions = program.instructions
    hierarchy = self.hierarchy
    predictor = self.predictor
    step = machine.step

    decoded = predecode_program(program)
    is_mem_col = decoded.is_mem
    is_control_col = decoded.is_control
    is_load_col = decoded.is_load
    is_store_col = decoded.is_store
    latency_col = decoded.latency
    dest_col = decoded.dest
    sources_col = decoded.sources

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
        # ---- execute architecturally ------------------------------------
        # First, so a pc outside the program raises step()'s ValueError
        # before the columns are indexed with it.
        result = step()
        retired += 1
        is_mem = is_mem_col[pc]
        is_control = is_control_col[pc]

        # ---- fetch -------------------------------------------------------
        fetch_ready = next_fetch_cycle
        fetch_block = pc // insts_per_block
        if fetch_block != current_fetch_block:
            current_fetch_block = fetch_block
            latency = timed_access(
                code_base + pc * instruction_bytes, False, True, fetch_ready,
            )
            fetch_ready += latency - 1  # a hit adds no bubble
        fetch_cycle = fetch_limiter.take(fetch_ready)

        # ---- dispatch ----------------------------------------------------
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

        # ---- issue -------------------------------------------------------
        ready = dispatch_cycle + 1
        for source in sources_col[pc]:
            source_ready = reg_ready[source]
            if source_ready > ready:
                ready = source_ready
        issue_cycle = issue_limiter.take(ready)
        issue_queue.release_at(issue_cycle)

        # ---- complete ----------------------------------------------------
        is_store = False
        if is_load_col[pc]:
            latency = timed_access(
                result.mem_address, False, False, issue_cycle
            )
            complete = issue_cycle + latency
        elif is_store_col[pc]:
            # The store leaves the pipe once address+data are ready; the
            # write drains through the hierarchy in the background.
            is_store = True
            complete = issue_cycle + 1
            timed_access(result.mem_address, True, False, complete)
        else:
            complete = issue_cycle + latency_col[pc]

        destination = dest_col[pc]
        if destination >= 0:
            reg_ready[destination] = complete

        # ---- control resolution ------------------------------------------
        if is_control:
            inst = instructions[pc]
            if pre_branch_hook is not None:
                pre_branch_hook(pc, inst)
            mispredicted = reference_predict_and_update(
                predictor, pc, inst, result.taken, result.next_index
            )
            checkpoints.release_at(complete)
            if mispredicted:
                next_fetch_cycle = complete + mispredict_penalty
                current_fetch_block = -1  # refetch after redirect
            elif result.taken:
                # Even a correctly predicted taken transfer ends the
                # current fetch group.
                next_fetch_cycle = fetch_cycle + 1

        # ---- retire ------------------------------------------------------
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


@dataclass
class ReferenceAccessResult:
    """Outcome of one :func:`reference_cache_access`."""

    hit: bool
    #: Byte address of a dirty line written back, or None.
    writeback_address: int | None = None
    #: Byte address of the line evicted (clean or dirty), or None.
    evicted_address: int | None = None


def reference_cache_access(self, address: int,
                           is_write: bool = False) -> ReferenceAccessResult:
    """Twin of :meth:`Cache.access` (same contract)."""
    stats = self.stats
    stats.accesses += 1
    stats.updates += 1
    line = address >> self._line_shift
    if self._sets_power_of_two:
        set_index = line & self._index_mask
        tag = line >> self._set_bits
    else:
        set_index = line % self.num_sets
        tag = line // self.num_sets
    row = self._tag_rows[set_index]
    order = self.order[set_index]

    for way, stored in enumerate(row):
        if stored == tag:
            stats.hits += 1
            if order[0] != way:
                order.remove(way)
                order.insert(0, way)
            if is_write and self._wbwa:
                self.dirty_bits[set_index * self.associativity + way] = 1
            return ReferenceAccessResult(hit=True)

    stats.misses += 1
    if is_write and self._wtna:
        # Write miss with no-write-allocate: the line is not brought in.
        return ReferenceAccessResult(hit=False)

    victim = order[-1]
    base = set_index * self.associativity
    evicted_tag = row[victim]
    writeback_address = None
    evicted_address = None
    if evicted_tag >= 0:
        evicted_address = self._address_of(set_index, evicted_tag)
        stats.evictions += 1
        if self.dirty_bits[base + victim]:
            stats.writebacks += 1
            writeback_address = evicted_address
    row[victim] = tag
    self.dirty_bits[base + victim] = 1 if is_write and self._wbwa else 0
    order.remove(victim)
    order.insert(0, victim)
    return ReferenceAccessResult(
        hit=False,
        writeback_address=writeback_address,
        evicted_address=evicted_address,
    )


def reference_l2_fill(self, address: int, is_write: bool, now: int) -> int:
    """Twin of ``MemoryHierarchy._l2_fill`` (same contract)."""
    config = self.config
    line_bytes = config.l2.line_bytes
    result = reference_cache_access(self.l2, address, is_write)
    time = now + config.l2.hit_latency
    if not result.hit:
        self.memory_accesses += 1
        time += config.memory_latency
        time = self.l2_bus.request(time, line_bytes)
    if result.writeback_address is not None:
        self.l2_bus.request(time, line_bytes)
    return time


def reference_timed_access(self, address: int, is_write: bool,
                           is_instruction: bool, now: int) -> int:
    """Twin of :meth:`MemoryHierarchy.timed_access` (same contract)."""
    l1 = self.l1i if is_instruction else self.l1d
    l1_wtna = l1.config.write_policy is WritePolicy.WTNA
    hit_latency = l1.config.hit_latency
    result = reference_cache_access(l1, address, is_write)
    if result.hit:
        if is_write and l1_wtna:
            # The write-through drains in the background.
            drain = self.l1_bus.request(now + hit_latency, 8)
            reference_l2_fill(self, address, True, drain)
        return hit_latency
    if is_write and l1_wtna:
        # No-write-allocate: the store completes once the bus accepts it.
        drain = self.l1_bus.request(now + hit_latency, 8)
        reference_l2_fill(self, address, True, drain)
        return drain - now
    request_time = self.l1_bus.request(now + hit_latency, 8)
    fill_time = reference_l2_fill(self, address, is_write, request_time)
    finish = self.l1_bus.request(fill_time, l1.config.line_bytes)
    if result.writeback_address is not None:
        drain = self.l1_bus.request(finish, l1.config.line_bytes)
        reference_l2_fill(self, result.writeback_address, True, drain)
    return finish - now


def reference_warm_access(self, address: int, is_write: bool,
                          is_instruction: bool) -> None:
    """Twin of :meth:`MemoryHierarchy.warm_access` (same contract)."""
    l1 = self.l1i if is_instruction else self.l1d
    l1_wtna = l1.config.write_policy is WritePolicy.WTNA
    result = reference_cache_access(l1, address, is_write)
    if result.hit:
        if is_write and l1_wtna:
            reference_cache_access(self.l2, address, True)
        return
    if is_write and l1_wtna:
        reference_cache_access(self.l2, address, True)
        return
    reference_cache_access(self.l2, address, is_write)
    if result.writeback_address is not None:
        reference_cache_access(self.l2, result.writeback_address, True)


def push_history(pht, taken: bool) -> None:
    """Shift one outcome into the global history register."""
    pht.history = ((pht.history << 1) | int(taken)) & pht._history_mask


def pht_update(pht, pc: int, taken: bool, history: int | None = None) -> None:
    """Train the counter for (`pc`, GHR) and shift the outcome into the
    GHR; `history` overrides the GHR used for indexing."""
    entry = pht.index(pc, history)
    pht.counters[entry] = update_counter(pht.counters[entry], taken)
    pht.updates += 1
    push_history(pht, taken)


def btb_update(btb, pc: int, target: int) -> None:
    """Record `pc` -> `target` (a taken control transfer)."""
    entry = pc & btb._mask
    btb.tags[entry] = pc
    btb.targets[entry] = target
    btb.updates += 1


def ras_push(ras, return_address: int) -> None:
    """Push on CALL; overwrites the oldest entry when full."""
    ras.top = (ras.top + 1) % ras.size
    ras.stack[ras.top] = return_address
    if ras.depth < ras.size:
        ras.depth += 1
    ras.pushes += 1


def ras_pop(ras) -> int:
    """Pop on RET; returns 0 when the stack has underflowed."""
    ras.pops += 1
    if ras.depth == 0:
        return 0
    value = ras.stack[ras.top]
    ras.top = (ras.top - 1) % ras.size
    ras.depth -= 1
    return value


def reference_predict_and_update(self, pc: int, inst, taken: bool,
                                 next_pc: int) -> bool:
    """Twin of :meth:`BranchPredictor.predict_and_update` (same
    contract): ``predict``, the statistics, then ``update``."""
    mispredicted = self.predict(pc, inst) != next_pc
    if inst.is_cond_branch:
        self.stats.conditional_branches += 1
        if mispredicted:
            self.stats.mispredictions += 1
    else:
        self.stats.control_transfers += 1
        if mispredicted:
            self.stats.target_mispredictions += 1
    self.update(pc, inst, taken, next_pc)
    return mispredicted


def chained_predictor_update(self, pc: int, inst, taken: bool,
                             next_pc: int) -> None:
    """Twin of :meth:`BranchPredictor.update` (same contract)."""
    if inst.is_cond_branch:
        pht_update(self.pht, pc, taken)
        if taken:
            btb_update(self.btb, pc, next_pc)
        return
    if inst.is_ret:
        ras_pop(self.ras)
        return
    if inst.is_call:
        ras_push(self.ras, pc + 1)
    btb_update(self.btb, pc, next_pc)


def scalar_cache_scan(reconstructor, source, fraction):
    """Per-reference twin of ``ReverseCacheReconstructor._apply_tail``:
    returns ``(scanned, applied)``."""
    hierarchy = reconstructor.hierarchy
    l1i_reconstruct = hierarchy.l1i.reconstruct_reference
    l1d_reconstruct = hierarchy.l1d.reconstruct_reference
    l2_reconstruct = hierarchy.l2.reconstruct_reference
    addresses, kinds = source.memory_reverse_arrays(fraction)
    applied = 0
    # "the reference stream is scanned in reverse order"
    for address, kind in zip(addresses.tolist(), kinds.tolist()):
        if kind == REF_INSTRUCTION:
            touched = l1i_reconstruct(address, False)
            touched |= l2_reconstruct(address, False)
        else:
            is_store = kind == REF_STORE
            touched = l1d_reconstruct(address, is_store)
            touched |= l2_reconstruct(address, is_store)
        if touched:
            applied += 1
    return len(addresses), applied


def scalar_btb_scan(reconstructor, source, fraction):
    """Per-claim twin of ``ReverseBranchReconstructor._rebuild_btb``:
    returns how many claims were scanned."""
    btb = reconstructor.predictor.btb
    pcs, targets = source.btb_claims_arrays(fraction)
    for pc, target in zip(pcs.tolist(), targets.tolist()):
        btb.reconstruct(pc, target)
    return len(pcs)


def uncached_warm_prefix(stack, count):
    """``SimulationStack.warm_prefix`` without the prefix memo: the
    reference run computes its own prefix, and leaves none behind for a
    production run to restore."""
    steady_state_prefix(stack.machine, stack.hierarchy, stack.predictor,
                        count)


@contextlib.contextmanager
def reference_engine():
    """Run every simulation inside the block on the reference engine.

    Patches reach only this process, so the block also pins
    ``map_tasks`` to a one-worker pool, its in-process fallback: sharded
    runs fold their shards here instead of in pool workers (the pool
    and the fallback are checked bit-identical by ``test_executor``).
    """
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            FunctionalMachine, "run", FunctionalMachine.run_scalar))
        stack.enter_context(mock.patch.object(
            TimingSimulator, "run", step_driven_run))
        stack.enter_context(mock.patch.object(
            ReverseCacheReconstructor, "_apply_tail", scalar_cache_scan))
        stack.enter_context(mock.patch.object(
            ReverseBranchReconstructor, "_rebuild_btb", scalar_btb_scan))
        stack.enter_context(mock.patch.object(
            Cache, "access", reference_cache_access))
        for name, twin in (("timed_access", reference_timed_access),
                           ("_l2_fill", reference_l2_fill),
                           ("warm_access", reference_warm_access)):
            stack.enter_context(mock.patch.object(
                MemoryHierarchy, name, twin))
        stack.enter_context(mock.patch.object(
            BranchPredictor, "update", chained_predictor_update))
        stack.enter_context(mock.patch.object(
            BranchPredictor, "predict_and_update",
            reference_predict_and_update))
        stack.enter_context(mock.patch.object(
            SimulationStack, "warm_prefix", uncached_warm_prefix))
        stack.enter_context(mock.patch.object(
            parallel, "ProcessPool", lambda jobs: ProcessPool(1)))
        yield


def sampled_run_record(workload, scale, method) -> dict:
    """One serial sampled run of `method` (a registered name or an
    unbound method) on `workload` at `scale`: its per-cluster IPCs,
    `WarmupCost`, estimate, and the final cache and predictor statistics
    and state of the simulation it ran."""
    if isinstance(method, str):
        method = resolve_method(method)
    simulator = SampledSimulator(
        workload, scale.regimen(), scale.configs(),
        warmup_prefix=scale.warmup_prefix, detail_ramp=scale.detail_ramp)
    stacks = []
    build = pipeline.build_simulation

    def recording_build(*args, **kwargs):
        stacks.append(build(*args, **kwargs))
        return stacks[-1]

    with mock.patch.object(pipeline, "build_simulation", recording_build):
        result = simulator.run(method)
    hierarchy, predictor = stacks[0].hierarchy, stacks[0].predictor
    return {
        "cluster_ipcs": result.cluster_ipcs,
        "cost": result.cost.as_dict(),
        "estimate": result.estimate.mean,
        "cache_stats": [dict(vars(cache.stats))
                        for cache in hierarchy.caches()],
        "cache_state": [cache.export_state() for cache in hierarchy.caches()],
        "predictor_stats": dict(vars(predictor.stats)),
        "predictor_state": predictor.export_state(),
    }
