"""Picklable, base-relative functional checkpoints for the two-phase pipeline.

The in-process :class:`~repro.functional.machine.Checkpoint` shares the
live :class:`~repro.functional.memory.Memory` implementation and is made
for same-process save/restore (MRRL's look-ahead profiling).  The
two-phase execution pipeline needs something stronger: a cluster shard
restores architectural state in a *worker process*, so the captured
state must cross a pickle boundary compactly and deterministically.

:class:`FunctionalCheckpoint` is that form — plain ints, a tuple of
registers, and the memory words that differ from a *base* image.  The
base is the workload's initial :class:`~repro.functional.memory.Memory`,
which every worker already holds (it arrives with the workload, once per
worker), so a checkpoint carries only what the program has written since
it started: on the bundled workloads 0–1.8k words of a 16.5k–36.9k-word
image, and none at all on mcf.  Restoring copies the base and applies the
delta, reproducing the exact architectural state (and therefore the exact
downstream instruction trace): the program image is immutable per
workload, so only the mutable state travels.

``base=None`` means an empty image, so a checkpoint captured without a
base carries the whole memory and restores onto any machine — one format,
one code path.  The checkpoint records its base's word count and
:meth:`FunctionalCheckpoint.restore` refuses a base of a different size,
so a delta can never be applied to the wrong image and yield a
plausible-looking wrong state.

Capture is one pass over the machine's resident words (a few ms for the
36.9k words of mcf), far below the cost of the detailed cluster
simulation the shard exists to parallelise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .machine import FunctionalMachine
from .memory import Memory


def _base_words(base: "Memory | None") -> dict[int, int]:
    return {} if base is None else base._words


@dataclass(frozen=True)
class FunctionalCheckpoint:
    """Full architectural state of one machine, relative to a base image.

    Frozen so a captured checkpoint can be shared by several consumers
    (shards, tests) without defensive copies at hand-off time; `restore`
    builds a private memory image for the target machine instead.
    """

    pc: int
    registers: tuple[int, ...]
    #: Words whose value differs from the base image (or that the base
    #: lacks), keyed by word-aligned byte address.
    memory_words: dict[int, int]
    instructions_retired: int
    halted: bool
    #: Word count of the base image the delta was taken against (0 for
    #: an empty base); `restore` checks it.
    base_words: int = 0

    @classmethod
    def capture(cls, machine: FunctionalMachine,
                base: "Memory | None" = None) -> "FunctionalCheckpoint":
        """Snapshot `machine`'s architectural state relative to `base`.

        A running machine only adds or overwrites words, so its words
        are a superset of the base's and the delta is complete.
        """
        reference = _base_words(base)
        return cls(
            pc=machine.pc,
            registers=tuple(machine.registers),
            memory_words={address: value
                          for address, value in machine.memory._words.items()
                          if reference.get(address) != value},
            instructions_retired=machine.instructions_retired,
            halted=machine.halted,
            base_words=len(reference),
        )

    def restore(self, machine: FunctionalMachine,
                base: "Memory | None" = None) -> FunctionalMachine:
        """Install this state onto `machine` (same workload program).

        Replaces registers, PC, retirement counter, and the whole memory
        image (a copy of `base` with the delta applied); the machine's
        ifetch-continuity marker is invalidated because execution is
        jumping to a checkpointed position.  Raises ``ValueError`` when
        `base` is not the image the checkpoint was captured against.
        Returns `machine` for chaining.
        """
        reference = _base_words(base)
        if len(reference) != self.base_words:
            raise ValueError(
                f"checkpoint was captured against a {self.base_words}-word "
                f"base memory image but restore was given one of "
                f"{len(reference)} words; pass the workload's initial "
                f"memory the checkpoint was taken relative to")
        memory = Memory()
        memory._words = dict(reference)
        memory._words.update(self.memory_words)
        machine.pc = self.pc
        machine.registers = list(self.registers)
        machine.memory = memory
        machine.instructions_retired = self.instructions_retired
        machine.halted = self.halted
        machine.invalidate_fetch_block()
        return machine

    def resident_words(self) -> int:
        """Memory words carried by this checkpoint (the delta's size)."""
        return len(self.memory_words)
