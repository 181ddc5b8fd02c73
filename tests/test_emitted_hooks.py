"""Emitted hooks against callable hooks, over the nine programs.

The skip log and functional warming hand ``FunctionalMachine.run`` an
emitter (:class:`repro.functional.blocks.Emitter`): their appends and
``warm_access``/``update`` calls compile into the translated blocks.
The same consumers' callables still serve everything the blocks do not
run — blocks cut by `count`, HALT — and every other caller.  These
tests drive one machine with the emitter and one with the callables
alone through identical random run lengths, across
``SKIP_FOLD_INSTRUCTIONS`` fold boundaries and up to HALT, and require
the same log (pending columns, retained structures, record counts and
every query) and the same warmed state (cache tags, recency and dirty
bits, predictor tables and every counter).  Warming's blocks count an
L1 read or ifetch that hits its set's MRU way instead of calling
``warm_access``; :class:`TestMruFastPath` covers the fold of those
counts, their per-run binding and the L1 geometries and policies.
"""

from __future__ import annotations

import random
from dataclasses import asdict, replace

import pytest

from repro.branch import BranchPredictor
from repro.cache import MemoryHierarchy, WritePolicy
from repro.core import CompactedSkipRegionLog, default_table
from repro.core.method import SKIP_FOLD_INSTRUCTIONS
from repro.functional import FunctionalMachine, Memory
from repro.functional.predecode import predecode_program
from repro.harness import scale_from_env
from repro.isa import ProgramBuilder
from repro.sampling import build_simulation
from repro.sampling.controller import WarmState
from repro.warmup.base import warming_hooks
from repro.workloads import PAPER_WORKLOADS, build_workload
from tests.cache_state import full_state
from tests.test_machine_batched import (
    LOOP_LENGTH, LOOP_TOPS, _mixed_program, _self_loop_program,
    machine_state,
)

#: Which of the consumer's events are hooked.
SIGNATURES = {"both": (True, True), "mem": (True, False),
              "branch": (False, True)}

#: Run lengths: single instructions and short counts cut blocks, so
#: their ends go through ``run_scalar``; whole fold slices cross folds.
LENGTHS = (1, 2, 3, 5, 17, 63, 700, 2900, SKIP_FOLD_INSTRUCTIONS)


def _configs():
    return scale_from_env(default="ci").configs()


def _programs():
    """``(name, program, memory, instructions)``: the nine programs, and
    one that halts after crossing a fold boundary."""
    for name in PAPER_WORKLOADS:
        workload = build_workload(name, mem_scale=1)
        yield (name, workload.program, workload.memory,
               2 * SKIP_FOLD_INSTRUCTIONS + 1500)
    yield "halting", _mixed_program(limit=500), Memory(), 10 ** 9


def _lockstep(program, memory, hooks, seed: int, total: int, on_chunk,
              lengths=LENGTHS):
    """Run an emitter machine and a callable machine side by side.

    `hooks` is ``[(kwargs with emitter, kwargs without)]`` per side; each
    run's length is drawn from `lengths`; `on_chunk(fold_crossed)` checks
    the sides after every chunk.
    """
    rng = random.Random(seed)
    machines = [FunctionalMachine(program, memory.copy()) for _ in hooks]
    done = 0
    while done < total and not machines[0].halted:
        count = min(rng.choice(lengths), total - done)
        counts = [machine.run(count, **kwargs)
                  for machine, kwargs in zip(machines, hooks)]
        assert counts[0] == counts[1]
        assert machine_state(machines[0]) == machine_state(machines[1])
        crossed = (done + counts[0]) // SKIP_FOLD_INSTRUCTIONS \
            > done // SKIP_FOLD_INSTRUCTIONS
        done += counts[0]
        on_chunk(crossed)
    assert machines[1].halted == machines[0].halted
    return machines[0]


def _log(fraction: float) -> CompactedSkipRegionLog:
    predictor = _configs().predictor
    return CompactedSkipRegionLog(
        line_bytes=64, pht_entries=predictor.pht_entries,
        history_bits=predictor.history_bits,
        max_history=default_table().max_history,
        index_pht=fraction >= 1.0, store_conditionals=True,
        fraction=fraction)


def _pending(log) -> tuple:
    columns = (log._addresses, log._kinds, log._branch_pcs,
               log._branch_targets, log._branch_codes)
    return (*(tuple(column) for column in columns), log.record_count())


def _retained(log) -> tuple:
    columns = (*log._memory, *log._btb, *log._outcomes, *log._windows,
               *log._conditionals)
    return (tuple(column.tolist() for column in columns),
            list(log._ras_stack), log._ghr, log.stored_records())


def _queries(log, fraction: float) -> tuple:
    history = log._history_bits
    addresses, kinds = log.memory_reverse_arrays(fraction)
    pcs, targets = log.btb_claims_arrays(fraction)
    return (addresses.tolist(), kinds.tolist(), pcs.tolist(),
            targets.tolist(),
            log.recent_conditional_outcomes(fraction, history),
            log.ras_tail_contents(fraction, 8),
            [column.tolist() for column in log.pht_entry_windows(
                fraction, log._pht_mask, history, log._max_history)])


@pytest.mark.parametrize("signature", sorted(SIGNATURES))
@pytest.mark.parametrize("fraction", (1.0, 0.2))
def test_emitted_log_equals_callable_log(fraction, signature):
    mem, branch = SIGNATURES[signature]
    for index, (name, program, memory, total) in enumerate(_programs()):
        logs = (_log(fraction), _log(fraction))
        hooks = []
        for log in logs:
            hooks.append({
                "mem_hook": log.make_mem_hook() if mem else None,
                "ifetch_hook": log.make_ifetch_hook() if mem else None,
                "branch_hook": log.make_branch_hook() if branch else None,
                "ifetch_block_bytes": 64,
            })
        hooks[0]["emitter"] = logs[0].make_emitter()

        def check(crossed, logs=logs, name=name):
            assert _pending(logs[0]) == _pending(logs[1]), name
            if crossed:
                for log in logs:
                    log.compact()
                assert _retained(logs[0]) == _retained(logs[1]), name

        _lockstep(program, memory, hooks, index, total, check)
        assert logs[0].record_count() == logs[1].record_count() > 0, name
        assert _queries(logs[0], fraction) == _queries(logs[1], fraction), \
            name


def _warm_state(hierarchy, predictor) -> tuple:
    caches = tuple(full_state(cache) for cache in hierarchy.caches())
    counters = tuple(getattr(getattr(predictor, part), name)
                     for part, name in (("pht", "updates"), ("btb", "updates"),
                                        ("ras", "pushes"), ("ras", "pops")))
    return (caches, hierarchy.memory_accesses, predictor.export_state(),
            asdict(predictor.stats), counters)


@pytest.mark.parametrize("signature", sorted(SIGNATURES))
def test_emitted_warming_equals_callable_warming(signature):
    warm_cache, warm_predictor = SIGNATURES[signature]
    configs = _configs()
    for index, (name, program, memory, total) in enumerate(_programs()):
        stacks = [(MemoryHierarchy(configs.hierarchy),
                   BranchPredictor(configs.predictor)) for _ in range(2)]
        hooks = [warming_hooks(hierarchy, predictor, warm_cache,
                               warm_predictor)
                 for hierarchy, predictor in stacks]
        del hooks[1]["emitter"]

        def check(crossed, stacks=stacks, name=name):
            assert _warm_state(*stacks[0]) == _warm_state(*stacks[1]), name

        _lockstep(program, memory, hooks, index, total, check)
        assert stacks[0][0].total_updates() + stacks[0][1].total_updates()


def _l1_variant(configs, variant: str):
    """`configs` with both L1s of 6 or 12 sets (``non-pow2``) or
    write-back write-allocate (``wbwa``); ``paper`` leaves them."""
    hierarchy = configs.hierarchy
    l1s = {}
    for name in ("l1i", "l1d"):
        l1 = getattr(hierarchy, name)
        if variant == "non-pow2":
            sets = l1.num_sets - l1.num_sets // 4
            assert sets & (sets - 1)
            l1s[name] = replace(l1, size_bytes=sets * l1.associativity
                                * l1.line_bytes)
        elif variant == "wbwa":
            l1s[name] = replace(l1, write_policy=WritePolicy.WBWA)
    return replace(configs, hierarchy=replace(hierarchy, **l1s))


class _Counted:
    """A callable that counts its calls."""

    def __init__(self, target) -> None:
        self.target, self.calls = target, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.target(*args, **kwargs)


class TestMruFastPath:
    """A read or ifetch that hits its L1 set's MRU way is counted in the
    block and folded into ``CacheStats`` when ``run`` ends; everything
    else calls ``warm_access``.  The fold, the per-run binding of the tag
    rows and recency orders, every geometry and write policy, and the
    ``run_scalar`` fallback each get the emitted side compared with the
    callable side after every chunk."""

    PROGRAMS = ("gcc", "mcf", "art", "parser")

    @pytest.mark.parametrize("variant", ("paper", "non-pow2", "wbwa"))
    def test_state_operations_between_runs(self, variant, monkeypatch):
        configs = _l1_variant(_configs(), variant)
        fallbacks = _Counted(FunctionalMachine.run_scalar)
        monkeypatch.setattr(FunctionalMachine, "run_scalar",
                            lambda *args, **kwargs: fallbacks(*args, **kwargs))
        for name in self.PROGRAMS:
            workload = build_workload(name, mem_scale=1)
            stacks = [build_simulation(workload, configs) for _ in range(2)]
            calls = []
            for stack in stacks:
                calls.append(_Counted(stack.hierarchy.warm_access))
                stack.hierarchy.warm_access = calls[-1]
            rng = random.Random(f"{variant}/{name}")
            snapshot = saved = None
            for _ in range(40):
                operation = rng.choice(("run", "run", "run", "fresh",
                                        "load_state", "restore"))
                if operation == "fresh":
                    for stack, counted in zip(stacks, calls):
                        stack.hierarchy = MemoryHierarchy(configs.hierarchy)
                        counted.target = stack.hierarchy.warm_access
                        stack.hierarchy.warm_access = counted
                elif operation == "load_state" and snapshot is not None:
                    for stack in stacks:
                        for cache, state in zip(stack.hierarchy.caches(),
                                                snapshot):
                            cache.load_state(state)
                elif operation == "restore" and saved is not None:
                    for stack in stacks:
                        saved.restore(stack)
                count = rng.choice(LENGTHS[:-1])
                hooks = [warming_hooks(stack.hierarchy, stack.predictor)
                         for stack in stacks]
                del hooks[1]["emitter"]
                counts = [stack.machine.run(count, **kwargs)
                          for stack, kwargs in zip(stacks, hooks)]
                assert counts[0] == counts[1]
                assert machine_state(stacks[0].machine) == \
                    machine_state(stacks[1].machine), name
                assert _warm_state(stacks[0].hierarchy, stacks[0].predictor) \
                    == _warm_state(stacks[1].hierarchy,
                                   stacks[1].predictor), (name, operation)
                if rng.random() < 0.2:
                    snapshot = [cache.export_state()
                                for cache in stacks[0].hierarchy.caches()]
                if rng.random() < 0.2:
                    saved = WarmState.capture(stacks[0])
            # The blocks took the fast path for some L1 reads.
            assert calls[0].calls < calls[1].calls, name
        assert fallbacks.calls > 0

    @pytest.mark.parametrize("variant", ("paper", "wbwa"))
    def test_store_fast_path_follows_the_write_policies(self, variant):
        """Under the paper's write-through L1D over a write-back L2, a
        store to a line MRU in both sets runs in the block; with a
        write-back L1D every store calls ``warm_access``.  The two
        hierarchies translate separate tables, and both leave the state
        the callables leave."""
        b = ProgramBuilder(name="stores")
        b.li(5, 0x1000)
        b.li(22, 200)
        b.label("top")
        b.load(4, 5, 0)
        b.store(4, 5, 8)
        b.addi(22, 22, -1)
        b.bne(22, 0, "top")
        b.halt()
        program = b.build()
        configs = _l1_variant(_configs(), variant)
        sides, stores = [], []
        for emitted in (True, False):
            hierarchy = MemoryHierarchy(configs.hierarchy)
            predictor = BranchPredictor(configs.predictor)
            access = hierarchy.warm_access
            calls = []

            def counted(address, is_write, is_instruction,
                        calls=calls, access=access):
                calls.append(is_write)
                access(address, is_write, is_instruction)

            hierarchy.warm_access = counted
            hooks = warming_hooks(hierarchy, predictor)
            kind = type(hooks["emitter"]).kind
            if not emitted:
                del hooks["emitter"]
            FunctionalMachine(program, Memory()).run(10 ** 4, **hooks)
            sides.append(_warm_state(hierarchy, predictor))
            stores.append(sum(calls))
        assert sides[0] == sides[1]
        assert stores[1] == 200
        assert stores[0] == (0 if variant == "paper" else 200)
        assert kind in {key[0] for key in predecode_program(program).blocks}
        assert kind[1:3] == ((configs.hierarchy.l1d.write_policy.name,
                              configs.hierarchy.l2.write_policy.name))

    def test_wild_pc_error_leaves_exact_stats(self):
        b = ProgramBuilder(name="wild-warm")
        b.li(5, 0x1000)
        b.li(22, 300)
        b.label("top")
        b.load(4, 5, 0)
        b.load(6, 5, 8)
        b.store(6, 5, 16)
        b.addi(22, 22, -1)
        b.bne(22, 0, "top")
        b.li(1, 1000)
        b.jr(1)
        program = b.build()
        configs = _configs()
        sides, l1d_stats = [], []
        for emitted in (True, False):
            machine = FunctionalMachine(program, Memory())
            hierarchy = MemoryHierarchy(configs.hierarchy)
            predictor = BranchPredictor(configs.predictor)
            hooks = warming_hooks(hierarchy, predictor)
            if not emitted:
                del hooks["emitter"]
            with pytest.raises(ValueError, match="wild-warm"):
                machine.run(10 ** 6, **hooks)
            sides.append((machine_state(machine),
                          _warm_state(hierarchy, predictor)))
            l1d_stats.append(hierarchy.l1d.stats)
        assert sides[0] == sides[1]
        # 300 iterations of two loads and a store, most loads MRU hits.
        assert l1d_stats[0].accesses == 900 and l1d_stats[0].hits > 500


class TestSelfLoops:
    """The log's and warming's blocks that branch back to their own entry
    go round inside their function; at every run length from one
    instruction to three passes, most ending mid-pass, the emitted side
    matches the callable side after every run."""

    @pytest.mark.parametrize("top", LOOP_TOPS.values(), ids=LOOP_TOPS)
    def test_log_at_every_chunk_length(self, top):
        program = _self_loop_program(top)
        for chunk in range(1, 3 * LOOP_LENGTH + 1):
            logs = (_log(1.0), _log(1.0))
            hooks = [{"mem_hook": log.make_mem_hook(),
                      "ifetch_hook": log.make_ifetch_hook(),
                      "branch_hook": log.make_branch_hook(),
                      "ifetch_block_bytes": 64} for log in logs]
            hooks[0]["emitter"] = logs[0].make_emitter()

            def check(crossed, logs=logs, chunk=chunk):
                assert _pending(logs[0]) == _pending(logs[1]), chunk
                for log in logs:
                    log.compact()
                assert _retained(logs[0]) == _retained(logs[1]), chunk

            _lockstep(program, Memory(), hooks, 0, 10 ** 9, check, (chunk,))
            assert _queries(logs[0], 1.0) == _queries(logs[1], 1.0), chunk
        table = predecode_program(program).blocks[("log", True, True, 16)]
        assert table[top][1] == -LOOP_LENGTH

    @pytest.mark.parametrize("top", LOOP_TOPS.values(), ids=LOOP_TOPS)
    def test_warming_at_every_chunk_length(self, top):
        program = _self_loop_program(top)
        configs = _configs()
        for chunk in range(1, 3 * LOOP_LENGTH + 1):
            stacks = [(MemoryHierarchy(configs.hierarchy),
                       BranchPredictor(configs.predictor)) for _ in range(2)]
            hooks = [warming_hooks(hierarchy, predictor)
                     for hierarchy, predictor in stacks]
            del hooks[1]["emitter"]

            def check(crossed, stacks=stacks, chunk=chunk):
                assert _warm_state(*stacks[0]) == _warm_state(*stacks[1]), \
                    chunk

            _lockstep(program, Memory(), hooks, 0, 10 ** 9, check, (chunk,))
        kind = type(hooks[0]["emitter"]).kind
        table = predecode_program(program).blocks[(kind, True, True, 16)]
        assert table[top][1] == -LOOP_LENGTH
