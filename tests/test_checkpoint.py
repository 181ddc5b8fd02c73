"""Property tests for FunctionalCheckpoint capture/pickle/restore.

The two-phase pipeline rests on one claim: a checkpoint restored onto a
fresh machine is indistinguishable — architecturally — from the machine
it was captured on.  These tests state that as a trace property: after
``capture -> pickle -> restore``, the next N instructions produce the
identical stream of (pc, next pc, memory address, taken bit) on both
machines, for every bundled workload — with and without a base image.
The base-relative properties pin the delta format itself: it is empty
for untouched memory, holds exactly the words that differ, and refuses
a base of the wrong size.
"""

import pickle
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.functional import FunctionalCheckpoint, FunctionalMachine, Memory
from repro.isa import ProgramBuilder
from repro.workloads import available_workloads, build_workload

#: Instructions executed before capture (past the trivial startup code)
#: and compared after restore.
WARMUP = 1_500
TRACE = 600


def _trace(machine, count):
    """The next `count` steps as (index, next_index, taken, mem, halted)."""
    events = []
    for _ in range(count):
        result = machine.step()
        events.append((result.index, result.next_index, result.taken,
                       result.mem_address, result.halted))
        if result.halted:
            break
    return events


@pytest.mark.parametrize("name", available_workloads())
def test_roundtrip_preserves_execution_trace(name):
    workload = build_workload(name)
    original = workload.make_machine()
    original.run(WARMUP)

    checkpoint = FunctionalCheckpoint.capture(original)
    blob = pickle.dumps(checkpoint)

    restored_machine = workload.make_machine()
    pickle.loads(blob).restore(restored_machine)

    assert restored_machine.pc == original.pc
    assert restored_machine.instructions_retired == \
        original.instructions_retired
    assert _trace(restored_machine, TRACE) == _trace(original, TRACE)
    # Both machines arrive at the same architectural state afterwards.
    assert restored_machine.pc == original.pc
    assert list(restored_machine.registers) == list(original.registers)


def test_restore_overwrites_diverged_machine():
    """Restoring onto a machine that ran elsewhere rewinds it exactly."""
    workload = build_workload("mcf")
    original = workload.make_machine()
    original.run(WARMUP)
    checkpoint = FunctionalCheckpoint.capture(original)

    diverged = workload.make_machine()
    diverged.run(WARMUP + 3_000)  # well past the capture point

    checkpoint.restore(diverged)
    assert _trace(diverged, TRACE) == _trace(original, TRACE)


def test_restore_invalidates_ifetch_marker():
    """A restore moves execution discontinuously, so the ifetch-continuity
    marker must drop — the next observed run re-reports its first block."""
    workload = build_workload("ammp")
    machine = workload.make_machine()
    machine.run(200, ifetch_hook=lambda address: None)
    assert machine._last_fetch[1] != -1

    checkpoint = FunctionalCheckpoint.capture(machine)
    checkpoint.restore(machine)
    assert machine._last_fetch == (0, -1)

    fetched = []
    machine.run(1, ifetch_hook=fetched.append)
    assert len(fetched) == 1


def test_checkpoint_is_frozen_and_carries_resident_words():
    workload = build_workload("gcc")
    machine = workload.make_machine()
    machine.run(WARMUP)
    checkpoint = FunctionalCheckpoint.capture(machine)
    assert checkpoint.resident_words() > 0
    with pytest.raises(AttributeError):
        checkpoint.pc = 0


def test_checkpoint_memory_is_isolated():
    """Stores on the restored machine never leak back into the capture
    (each restore builds a private memory image)."""
    workload = build_workload("vortex")
    machine = workload.make_machine()
    machine.run(WARMUP)
    checkpoint = FunctionalCheckpoint.capture(machine)

    first = workload.make_machine()
    checkpoint.restore(first)
    first.run(2_000)  # mutate memory past the capture point

    second = workload.make_machine()
    checkpoint.restore(second)
    assert _trace(second, TRACE) == _trace(machine, TRACE)


# ---------------------------------------------------------------------------
# base-relative capture/restore
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _cached_workload(name):
    return build_workload(name)


def _halting_program():
    builder = ProgramBuilder()
    builder.halt()
    return builder.build()


def _memory(words):
    memory = Memory()
    for address, value in words.items():
        memory.store(address, value)
    return memory


#: Word-aligned addresses in a small range, so generated writes collide
#: with generated base words often.
addresses = st.integers(min_value=0, max_value=63).map(lambda word: word * 8)
values = st.integers(min_value=0, max_value=(1 << 64) - 1)
images = st.dictionaries(addresses, values, max_size=24)


@given(name=st.sampled_from(available_workloads()),
       warmup=st.integers(min_value=0, max_value=3_000))
@settings(max_examples=12, deadline=None)
def test_base_relative_restore_reproduces_the_trace(name, warmup):
    workload = _cached_workload(name)
    original = workload.make_machine()
    original.run(warmup)

    checkpoint = pickle.loads(pickle.dumps(
        FunctionalCheckpoint.capture(original, workload.memory)))
    restored = checkpoint.restore(workload.make_machine(), workload.memory)

    assert restored.memory._words == original.memory._words
    assert restored.instructions_retired == original.instructions_retired
    assert _trace(restored, TRACE) == _trace(original, TRACE)
    # The base image itself is never written through.
    assert workload.memory._words == _cached_workload(name).memory._words


@given(name=st.sampled_from(available_workloads()))
@settings(max_examples=9, deadline=None)
def test_delta_is_empty_for_untouched_workload_memory(name):
    workload = _cached_workload(name)
    checkpoint = FunctionalCheckpoint.capture(workload.make_machine(),
                                              workload.memory)
    assert checkpoint.memory_words == {}
    assert checkpoint.base_words == workload.memory.footprint_words()


@given(base=images, writes=images)
@settings(max_examples=200, deadline=None)
def test_delta_holds_exactly_the_differing_words(base, writes):
    machine = FunctionalMachine(_halting_program(), _memory(base))
    for address, value in writes.items():
        machine.memory.store(address, value)

    checkpoint = FunctionalCheckpoint.capture(machine, _memory(base))
    expected = {address: value for address, value in writes.items()
                if address not in base or base[address] != value}
    assert checkpoint.memory_words == expected
    assert checkpoint.base_words == len(base)

    target = FunctionalMachine(_halting_program())
    checkpoint.restore(target, _memory(base))
    assert target.memory._words == machine.memory._words


@given(base=images, other=images)
@settings(max_examples=200, deadline=None)
def test_mismatched_base_raises(base, other):
    assume(len(other) != len(base))
    machine = FunctionalMachine(_halting_program(), _memory(base))
    checkpoint = FunctionalCheckpoint.capture(machine, _memory(base))
    target = FunctionalMachine(_halting_program())
    with pytest.raises(ValueError, match="base memory image"):
        checkpoint.restore(target, _memory(other))
    # The refused restore left the target untouched.
    assert target.memory._words == {}
