"""Predecoded program representation (columnar decode cache).

Reading an :class:`~repro.isa.instructions.Instruction` object costs an
attribute lookup per operand field.  Consumers that walk a program many
times instead read *parallel columns*, one typed array per field,
decoded once per :class:`~repro.isa.program.Program`:

- ``ops``/``rds``/``rs1s``/``rs2s`` (``array('h')``/``array('B')``) and
  ``imms``/``targets`` (``array('q')``) hold the operand fields; the
  block translator (:mod:`repro.functional.blocks`) bakes them into its
  compiled blocks;
- the timing-simulator columns (``is_mem``/``is_control``/``is_load``/
  ``is_store`` bytearrays, ``latency``, ``dest`` with −1 for "no
  destination", and per-instruction ``sources`` tuples) are what the
  timing translator (:mod:`repro.timing.blocks`) bakes into its blocks;
- ``blocks`` holds the translated blocks: one functional table per hook
  signature, and one timing table per fetch-block size and block cap.

An operand too wide for its 64-bit column *poisons* the slot: its opcode
column reads −1, so no translated block covers it and it runs through
``step()``.

Decoding is memoized on the program object (``program._predecoded``),
so every machine over the same image shares one decode and one set of
translated blocks; ``Program.__getstate__`` drops it from pickles.
"""

from __future__ import annotations

from array import array


class PredecodedProgram:
    """Columnar decode of one program (see module docstring)."""

    __slots__ = (
        "ops", "rds", "rs1s", "rs2s", "imms", "targets",
        "is_mem", "is_control", "is_load", "is_store",
        "latency", "dest", "sources", "blocks",
    )

    def __init__(self, program) -> None:
        instructions = program.instructions
        n = len(instructions)
        ops = array("h", bytes(2 * n))
        rds = array("B", bytes(n))
        rs1s = array("B", bytes(n))
        rs2s = array("B", bytes(n))
        imms = array("q", bytes(8 * n))
        targets = array("q", bytes(8 * n))
        is_mem = bytearray(n)
        is_control = bytearray(n)
        is_load = bytearray(n)
        is_store = bytearray(n)
        latency = bytearray(n)
        dest = array("b", bytes(n))
        sources: list[tuple[int, ...]] = [()] * n

        for index, inst in enumerate(instructions):
            ops[index] = inst.opcode
            rds[index] = inst.rd
            rs1s[index] = inst.rs1
            rs2s[index] = inst.rs2
            try:
                imms[index] = inst.imm
                targets[index] = inst.target
            except OverflowError:
                # An operand that does not fit the 64-bit column is left
                # to the step() fallback: the poisoned opcode keeps the
                # block translator from reading the stale column values.
                ops[index] = -1
            is_mem[index] = inst.is_mem
            is_control[index] = inst.is_control
            is_load[index] = inst.is_load
            is_store[index] = inst.is_store
            latency[index] = inst.latency
            destination = inst.destination()
            dest[index] = -1 if destination is None else destination
            sources[index] = inst.sources()

        self.ops = ops
        self.rds = rds
        self.rs1s = rs1s
        self.rs2s = rs2s
        self.imms = imms
        self.targets = targets
        self.is_mem = is_mem
        self.is_control = is_control
        self.is_load = is_load
        self.is_store = is_store
        self.latency = latency
        self.dest = dest
        self.sources = sources
        #: Hook signature -> repro.functional.blocks.BlockTable, and
        #: ("timing", ...) -> repro.timing.blocks.TimingBlockTable.
        self.blocks: dict = {}

    def __len__(self) -> int:
        return len(self.ops)


def predecode_program(program) -> PredecodedProgram:
    """Decode `program` into columns, memoized on the program object."""
    cached = getattr(program, "_predecoded", None)
    if cached is not None:
        return cached
    decoded = PredecodedProgram(program)
    program._predecoded = decoded
    return decoded
