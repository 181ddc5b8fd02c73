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
bits, predictor tables and every counter).
"""

from __future__ import annotations

import random
from dataclasses import asdict

import pytest

from repro.branch import BranchPredictor
from repro.cache import MemoryHierarchy
from repro.core import CompactedSkipRegionLog, default_table
from repro.core.method import SKIP_FOLD_INSTRUCTIONS
from repro.functional import FunctionalMachine, Memory
from repro.harness import scale_from_env
from repro.warmup.base import warming_hooks
from repro.workloads import PAPER_WORKLOADS, build_workload
from tests.test_machine_batched import _mixed_program, machine_state

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


def _lockstep(program, memory, hooks, seed: int, total: int, on_chunk):
    """Run an emitter machine and a callable machine side by side.

    `hooks` is ``[(kwargs with emitter, kwargs without)]`` per side;
    `on_chunk(fold_crossed)` checks the sides after every chunk.
    """
    rng = random.Random(seed)
    machines = [FunctionalMachine(program, memory.copy()) for _ in hooks]
    done = 0
    while done < total and not machines[0].halted:
        count = min(rng.choice(LENGTHS), total - done)
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
    return (bytes(log._addresses), bytes(log._kinds),
            bytes(log._branch_pcs), bytes(log._branch_targets),
            bytes(log._branch_codes), log.record_count())


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
            log.pht_entry_windows(fraction, log._pht_mask, history,
                                  log._max_history),
            log.conditional_history(fraction, history))


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
    caches = tuple((cache.export_state(), asdict(cache.stats))
                   for cache in hierarchy.caches())
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
        _lockstep(program, memory, hooks, index, total, lambda crossed: None)
        assert _warm_state(*stacks[0]) == _warm_state(*stacks[1]), name
        assert stacks[0][0].total_updates() + stacks[0][1].total_updates()
