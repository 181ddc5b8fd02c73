"""Workload container and memory-image initialisation helpers.

A :class:`Workload` bundles a program with its initial memory image (jump
tables, pointer chains, seeded arrays).  Calling :meth:`Workload.make_machine`
yields a fresh :class:`~repro.functional.FunctionalMachine` with a private
copy of the image, so repeated experiments on the same workload are
independent and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..functional import FunctionalMachine, Memory, WORD_BYTES
from ..isa import Program


@dataclass
class Workload:
    """A generated benchmark: program + initial memory + metadata."""

    name: str
    program: Program
    memory: Memory
    description: str = ""
    #: Free-form tuning knobs recorded for reports (working set sizes, ...).
    parameters: dict = field(default_factory=dict)

    def make_machine(self) -> FunctionalMachine:
        """Fresh functional machine over a private copy of the image."""
        return FunctionalMachine(self.program, self.memory.copy())

    def __getstate__(self) -> dict:
        # The steady-state prefix memo (``_prefix_memo``, see
        # :meth:`repro.sampling.SimulationStack.warm_prefix`) is derived
        # per process and rebuilt on first use.
        state = dict(self.__dict__)
        state.pop("_prefix_memo", None)
        return state

    def __repr__(self) -> str:
        return (
            f"Workload({self.name!r}, {len(self.program)} instructions, "
            f"{self.memory.footprint_words()} data words)"
        )


def init_pointer_chain(
    memory: Memory, base: int, num_words: int, rng: np.random.Generator
) -> int:
    """Lay out a random single-cycle linked chain over `num_words` words.

    Each word holds the byte address of the next node; the chain visits
    every word exactly once before wrapping.  Returns the head address.
    """
    if num_words < 2:
        raise ValueError("a chain needs at least two nodes")
    permutation = rng.permutation(num_words)
    addresses = base + permutation.astype(np.int64) * WORD_BYTES
    for position in range(num_words):
        next_position = (position + 1) % num_words
        memory.store(int(addresses[position]), int(addresses[next_position]))
    return int(addresses[0])


def init_jump_table(memory: Memory, base: int, entries: list[int]) -> None:
    """Store function entry indices at consecutive words from `base`."""
    memory.fill_words(base, entries)


def init_array(
    memory: Memory, base: int, num_words: int, rng: np.random.Generator,
    max_value: int = 1 << 16,
) -> None:
    """Fill `num_words` words from `base` with small random values."""
    values = rng.integers(0, max_value, size=num_words)
    memory.fill_words(base, (int(v) for v in values))


def round_up_power_of_two(value: int) -> int:
    """Smallest power of two >= value (jump-table masks need 2^k sizes)."""
    if value <= 1:
        return 1
    return 1 << (value - 1).bit_length()
