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
  :func:`reference_predict_and_update` call, each conditional branch
  first probing the armed :class:`OnDemandPHT`;
- :class:`OnDemandPHT` — the paper's §3.2 on-demand PHT reconstruction,
  the twin of ``ReverseBranchReconstructor``'s boundary step: each
  probe of an entry not yet reconstructed walks the tail's conditional
  stream newest to oldest as far as the entry needs, and the entries no
  probe reached are drained after the cluster;
- :func:`scalar_cache_scan` — the paper's literal reverse cache scan,
  one ``reconstruct_reference`` call per logged reference and level;
- :func:`scalar_btb_scan` — one ``btb.reconstruct`` call per claim,
  newest first;
- :func:`reference_cache_access` — ``Cache.access`` as an
  ``enumerate`` scan of the set's row that allocates a
  :class:`ReferenceAccessResult` per access and computes the evicted
  address eagerly;
- :class:`WayIndexedCache` — a cache of its own in the way-indexed
  layout (tags by way, a recency order of way indices, dirty bits by
  way), which the fuzz tests compare ``Cache`` with by what an access
  shows;
- :func:`reference_timed_access`, :func:`reference_l2_fill` and
  :func:`reference_warm_access` — ``MemoryHierarchy``'s access paths
  over :func:`reference_cache_access` (or over
  :class:`WayIndexedCache` caches), branching on its result object;
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
- :func:`on_demand_engine` — a context manager that runs whole
  simulations with :class:`OnDemandPHT` in place of the boundary step
  (and :func:`step_driven_run`, which probes it);
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
from types import SimpleNamespace
from unittest import mock

from repro.branch import BranchPredictor, update_counter
from repro.cache import Cache, MemoryHierarchy, WritePolicy
from repro.core import ReverseStateReconstruction
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
from repro.telemetry import METRIC_PHT_ENTRIES
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


def step_driven_run(self, max_instructions: int,
                    measure_after: int = 0) -> TimingResult:
    """Per-instruction twin of :meth:`TimingSimulator.run` (same
    contract): one ``step()``, then the instruction's fetch, dispatch,
    issue, complete and retire cycles.  A conditional branch probes the
    predictor's armed :class:`OnDemandPHT`, if any, before it predicts."""
    config = self.config
    machine = self.machine
    program = machine.program
    instructions = program.instructions
    hierarchy = self.hierarchy
    predictor = self.predictor
    step = machine.step
    on_demand = _ARMED.get(id(predictor))

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
            if on_demand is not None and inst.is_cond_branch:
                on_demand.probe(pc)
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
    """Outcome of one :func:`reference_cache_access` or
    :meth:`WayIndexedCache.access`."""

    hit: bool
    #: Byte address of a dirty line written back, or None.
    writeback_address: int | None = None
    #: Byte address of the line evicted (clean or dirty), or None.
    evicted_address: int | None = None


def reference_cache_access(self, address: int,
                           is_write: bool = False) -> ReferenceAccessResult:
    """Twin of :meth:`Cache.access` (same contract) over the same rows."""
    stats = self.stats
    line = address >> self._line_shift
    row = self.rows[line % self.num_sets]
    for position, stored in enumerate(row):
        if stored == line:
            stats.hits += 1
            row.insert(0, row.pop(position))
            if is_write and self._wbwa:
                self.dirty.add(line)
            return ReferenceAccessResult(hit=True)

    stats.misses += 1
    if is_write and self._wtna:
        # Write miss with no-write-allocate: the line is not brought in.
        return ReferenceAccessResult(hit=False)

    evicted = row[-1]
    writeback_address = None
    evicted_address = None
    if evicted >= 0:
        evicted_address = evicted << self._line_shift
        stats.evictions += 1
        if evicted in self.dirty:
            stats.writebacks += 1
            writeback_address = evicted_address
    self.dirty.discard(evicted)
    if is_write and self._wbwa:
        self.dirty.add(line)
    row[:] = [line] + row[:-1]
    return ReferenceAccessResult(
        hit=False,
        writeback_address=writeback_address,
        evicted_address=evicted_address,
    )


class WayIndexedCache:
    """A set-associative true-LRU cache in the way-indexed layout: per
    set a row of tags by way (−1 invalid), an ``order`` list of way
    indices from most- to least-recently used, and per-block dirty bits.

    It shares no state or code with :class:`~repro.cache.Cache`, so the
    fuzz tests check a change of ``Cache``'s layout against a rule that
    the change leaves alone; they compare the two by what an access
    shows: its result, the counters, each set's lines in recency order,
    and the dirty lines.  :meth:`access` returns a
    :class:`ReferenceAccessResult`, and the hierarchy twins below accept
    a :class:`~repro.cache.MemoryHierarchy` whose caches are these.
    """

    def __init__(self, config) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self._line_bytes = config.line_bytes
        self._wbwa = config.write_policy is WritePolicy.WBWA
        self._wtna = config.write_policy is WritePolicy.WTNA
        sets, ways = self.num_sets, self.associativity
        self.tags = [[-1] * ways for _ in range(sets)]
        self.order = [list(range(ways)) for _ in range(sets)]
        self.dirty_bits = [[False] * ways for _ in range(sets)]
        self.stats = SimpleNamespace(hits=0, misses=0, evictions=0,
                                     writebacks=0)

    def _split(self, address: int) -> tuple[int, int]:
        line = address // self._line_bytes
        return line % self.num_sets, line // self.num_sets

    def _address(self, set_index: int, tag: int) -> int:
        return (tag * self.num_sets + set_index) * self._line_bytes

    def access(self, address: int,
               is_write: bool = False) -> ReferenceAccessResult:
        """One forward access, honouring the write policy."""
        stats = self.stats
        set_index, tag = self._split(address)
        tags = self.tags[set_index]
        order = self.order[set_index]
        dirty = self.dirty_bits[set_index]
        for way, stored in enumerate(tags):
            if stored == tag:
                stats.hits += 1
                order.remove(way)
                order.insert(0, way)
                if is_write and self._wbwa:
                    dirty[way] = True
                return ReferenceAccessResult(hit=True)
        stats.misses += 1
        if is_write and self._wtna:
            return ReferenceAccessResult(hit=False)
        victim = order[-1]
        result = ReferenceAccessResult(hit=False)
        if tags[victim] >= 0:
            result.evicted_address = self._address(set_index, tags[victim])
            stats.evictions += 1
            if dirty[victim]:
                stats.writebacks += 1
                result.writeback_address = result.evicted_address
        tags[victim] = tag
        dirty[victim] = is_write and self._wbwa
        order.remove(victim)
        order.insert(0, victim)
        return result

    def mru_order(self, set_index: int) -> list[int]:
        """The line addresses resident in set `set_index`, most recently
        used first."""
        tags = self.tags[set_index]
        return [self._address(set_index, tags[way])
                for way in self.order[set_index] if tags[way] >= 0]

    def dirty_lines(self) -> set[int]:
        """The line addresses of the dirty resident lines."""
        return {self._address(set_index, tag)
                for set_index, (tags, dirty) in enumerate(
                    zip(self.tags, self.dirty_bits))
                for tag, bit in zip(tags, dirty) if bit}

    def export_state(self) -> dict:
        return {"tags": [list(row) for row in self.tags],
                "order": [list(row) for row in self.order],
                "dirty": [list(row) for row in self.dirty_bits]}

    def load_state(self, state: dict) -> None:
        self.tags = [list(row) for row in state["tags"]]
        self.order = [list(row) for row in state["order"]]
        self.dirty_bits = [list(row) for row in state["dirty"]]


def _access(cache, address: int, is_write: bool) -> ReferenceAccessResult:
    """One access of a :class:`WayIndexedCache`, or of a production
    ``Cache`` through :func:`reference_cache_access`."""
    if isinstance(cache, WayIndexedCache):
        return cache.access(address, is_write)
    return reference_cache_access(cache, address, is_write)


def reference_l2_fill(self, address: int, is_write: bool, now: int) -> int:
    """Twin of ``MemoryHierarchy._l2_fill`` (same contract)."""
    config = self.config
    line_bytes = config.l2.line_bytes
    result = _access(self.l2, address, is_write)
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
    result = _access(l1, address, is_write)
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
    result = _access(l1, address, is_write)
    if result.hit:
        if is_write and l1_wtna:
            _access(self.l2, address, True)
        return
    if is_write and l1_wtna:
        _access(self.l2, address, True)
        return
    _access(self.l2, address, is_write)
    if result.writeback_address is not None:
        _access(self.l2, result.writeback_address, True)


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


#: Armed :class:`OnDemandPHT` walks, by ``id`` of the predictor each one
#: repairs (an armed walk holds its predictor, so the id stays unique).
_ARMED: dict[int, "OnDemandPHT"] = {}


def conditional_stream(source, fraction: float, history_bits: int):
    """``(pc, taken, ghr_before)`` for each conditional of the tail, in
    program order, with the GHR zeroed at the tail start; None when the
    source keeps no conditional stream (the compacted log at fraction
    1.0, which keeps only its running windows)."""
    history = getattr(source, "conditional_history", None)
    if history is not None:
        return history(fraction, history_bits)
    if not source._store_conditionals:
        return None
    pcs, outcomes = source._conditional_tail(fraction)
    ghr_mask = (1 << history_bits) - 1
    stream = []
    running = 0
    for pc, taken in zip(pcs.tolist(), outcomes.tolist()):
        stream.append((pc, taken, running))
        running = ((running << 1) | taken) & ghr_mask
    return stream


class OnDemandPHT:
    """The paper's §3.2 on-demand PHT reconstruction of one boundary.

    "As branches are encountered in the next cluster, the branch
    predictor is probed to determine if the entry has been
    reconstructed.  If not, the entry is first reconstructed before hot
    execution continues."  The reconstructor's GHR, BTB and RAS steps
    run as in production; this walk replaces its PHT step.

    Where the source keeps the tail's conditional stream (the raw oracle,
    and the compacted log at partial fractions), a probe walks it newest
    to oldest from where the last walk stopped, extending every entry's
    reverse history it meets and resolving each entry the moment its
    history pins the counter, until the probed entry is resolved or the
    stream is exhausted; so the stream is walked once per cluster.  The
    compacted log at fraction 1.0 keeps only its windows; there a probe
    resolves the probed entry's window.  After the cluster, :meth:`drain`
    resolves every entry the log mentions that no probe reached.  A
    resolved entry is the cluster's to train: a probe resolves it before
    its first update, and no later walk touches it.
    """

    def __init__(self, reconstructor, source, fraction: float) -> None:
        self.reconstructor = reconstructor
        self.pht = reconstructor.predictor.pht
        self.table = reconstructor.table
        self.resolved: set[int] = set()
        self.pending: dict[int, tuple[int, int]] = {}
        self.conditionals = conditional_stream(source, fraction,
                                               self.pht.history_bits)
        self.windows = None
        if self.conditionals is None:
            self.conditionals = []
            entries, codes = reconstructor._windows
            self.windows = dict(zip(entries.tolist(), codes.tolist()))
        self.cursor = len(self.conditionals) - 1

    def _resolve(self, entry: int, length: int, bits: int) -> None:
        value = self.table.lookup(length, bits).value
        reconstructor = self.reconstructor
        if value is not None and reconstructor.infer_counters:
            self.pht.counters[entry] = value
            reconstructor.counter_writes += 1
            reconstructor.telemetry.count(METRIC_PHT_ENTRIES)
        self.resolved.add(entry)

    def _walk(self, until=None) -> None:
        """Walk the stream until entry `until` is resolved (None: to
        its end)."""
        conditionals = self.conditionals
        pending = self.pending
        resolved = self.resolved
        table = self.table
        mask = self.pht.entries - 1
        cursor = self.cursor
        while cursor >= 0 and until not in resolved:
            pc, taken, ghr_before = conditionals[cursor]
            cursor -= 1
            index = (pc ^ ghr_before) & mask
            if index in resolved:
                continue
            length, bits = pending.get(index, (0, 0))
            # Walking newest -> oldest: this outcome is the next-older bit.
            bits |= int(taken) << length
            length += 1
            if table.lookup(length, bits).exact:
                pending.pop(index, None)
                self._resolve(index, length, bits)
            else:
                pending[index] = (length, bits)
        self.cursor = cursor

    def demand(self, entry: int) -> None:
        """Resolve PHT `entry` if no probe or walk has yet."""
        if entry in self.resolved:
            return
        if self.windows is not None:
            code = self.windows.pop(entry, 0)
            depth = self.table.max_history
            self._resolve(entry, code >> depth, code & ((1 << depth) - 1))
            return
        self._walk(entry)
        if entry not in self.resolved:
            # Stream exhausted: resolve with whatever history accumulated.
            self._resolve(entry, *self.pending.pop(entry, (0, 0)))

    def probe(self, pc: int) -> None:
        """The conditional branch at `pc` is about to predict."""
        self.demand((pc ^ self.pht.history) & (self.pht.entries - 1))

    def drain(self) -> None:
        """Resolve every entry the log mentions that no probe reached."""
        if self.windows is not None:
            for entry in list(self.windows):
                self.demand(entry)
            return
        self._walk()
        for entry, (length, bits) in list(self.pending.items()):
            self._resolve(entry, length, bits)
        self.pending.clear()

    def census(self) -> dict:
        """``ReverseBranchReconstructor.inference_census`` of the armed
        walk, before any probe: each mentioned entry's inference is the
        one the walk resolves it with."""
        table = self.table
        if self.windows is not None:
            depth = self.table.max_history
            inferences = [table.lookup(code >> depth,
                                       code & ((1 << depth) - 1))
                          for code in self.windows.values()]
        else:
            mask = self.pht.entries - 1
            histories: dict[int, tuple[int, int]] = {}
            resolved: dict[int, object] = {}
            for pc, taken, ghr_before in reversed(self.conditionals):
                index = (pc ^ ghr_before) & mask
                if index in resolved:
                    continue
                length, bits = histories.get(index, (0, 0))
                bits |= int(taken) << length
                length += 1
                inference = table.lookup(length, bits)
                if inference.exact:
                    resolved[index] = inference
                    histories.pop(index, None)
                else:
                    histories[index] = (length, bits)
            for index, (length, bits) in histories.items():
                resolved[index] = table.lookup(length, bits)
            inferences = list(resolved.values())
        # An inference is exact exactly when one state is possible.
        widths = [len(inference.possible) for inference in inferences]
        return {
            "pht_entries_mentioned": len(widths),
            "pht_exact": widths.count(1),
            "pht_ambiguous_two": widths.count(2),
            "pht_ambiguous_three": widths.count(3),
            "pht_stale": self.pht.entries - len(widths),
            "pht_ambiguity_mass": sum(widths) - len(widths),
        }


_PREPARE = ReverseBranchReconstructor.prepare
_CENSUS = ReverseBranchReconstructor.inference_census
_POST_CLUSTER = ReverseStateReconstruction.post_cluster


def on_demand_prepare(self, source, fraction: float = 1.0) -> None:
    """``ReverseBranchReconstructor.prepare`` with its PHT step (a no-op
    ``_write_counters`` inside :func:`on_demand_engine`) replaced by an
    armed :class:`OnDemandPHT`."""
    _PREPARE(self, source, fraction)
    _ARMED[id(self.predictor)] = OnDemandPHT(self, source, fraction)


def on_demand_census(self) -> dict:
    armed = _ARMED.get(id(self.predictor))
    return armed.census() if armed is not None else _CENSUS(self)


def settle_pht(predictor) -> bool:
    """Drain and disarm `predictor`'s armed walk; False if none was
    armed."""
    armed = _ARMED.pop(id(predictor), None)
    if armed is None:
        return False
    armed.drain()
    return True


def on_demand_post_cluster(self) -> None:
    """``ReverseStateReconstruction.post_cluster`` after the drain, which
    books the walk's counter writes (the boundary step books its own in
    ``pre_cluster``)."""
    if self.warm_predictor:
        reconstructor = self._branch_reconstructor
        if settle_pht(reconstructor.predictor):
            self.cost.predictor_updates += reconstructor.counter_writes
    _POST_CLUSTER(self)


@contextlib.contextmanager
def on_demand_engine():
    """Run every simulation inside the block with the paper's on-demand
    PHT walk (:class:`OnDemandPHT`) in place of the boundary step, on
    :func:`step_driven_run`, whose conditional branches probe it.

    A cluster-entry observer sees the PHT before any probe, so the
    states ``record_cluster_entries`` captures differ from production's
    inside the block; everything after the cluster does not.
    """
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            TimingSimulator, "run", step_driven_run))
        for name, twin in (("prepare", on_demand_prepare),
                           ("_write_counters",
                            lambda self, entries, codes: None),
                           ("inference_census", on_demand_census)):
            stack.enter_context(mock.patch.object(
                ReverseBranchReconstructor, name, twin))
        stack.enter_context(mock.patch.object(
            ReverseStateReconstruction, "post_cluster",
            on_demand_post_cluster))
        try:
            yield
        finally:
            _ARMED.clear()


def uncached_warm_prefix(stack, count):
    """``SimulationStack.warm_prefix`` without the prefix memo: the
    reference run computes its own prefix, and leaves none behind for a
    production run to restore."""
    steady_state_prefix(stack.machine, stack.hierarchy, stack.predictor,
                        count)


@contextlib.contextmanager
def reference_engine():
    """Run every simulation inside the block on the reference engine,
    :func:`on_demand_engine` included.

    Patches reach only this process, so the block also pins
    ``map_tasks`` to a one-worker pool, its in-process fallback: sharded
    runs fold their shards here instead of in pool workers (the pool
    and the fallback are checked bit-identical by ``test_executor``).
    """
    with contextlib.ExitStack() as stack:
        stack.enter_context(on_demand_engine())
        stack.enter_context(mock.patch.object(
            FunctionalMachine, "run", FunctionalMachine.run_scalar))
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
