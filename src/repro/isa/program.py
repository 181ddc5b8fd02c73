"""Program container: a decoded instruction image plus code-layout metadata.

A :class:`Program` is what the functional and timing simulators execute.
Instruction *indices* are the unit of control flow (``target`` fields point
at indices); *byte addresses* are derived from the index for the instruction
cache via :attr:`Program.code_base` and :attr:`Program.instruction_bytes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .instructions import Instruction
from .opcodes import Opcode


#: Default base byte address of the code segment.
DEFAULT_CODE_BASE = 0x0040_0000

#: Default base byte address of the data segment.
DEFAULT_DATA_BASE = 0x1000_0000

#: Default base byte address of the stack segment (grows downward).
DEFAULT_STACK_BASE = 0x7FFF_0000


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions.

    Attributes
    ----------
    start, end:
        Instruction-index range [start, end) covered by the block.
    successors:
        Instruction indices of possible successor block starts.
    """

    start: int
    end: int
    successors: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return self.end - self.start


class Program:
    """An executable image for the synthetic ISA.

    Parameters
    ----------
    instructions:
        The decoded instruction stream; ``target`` fields must already be
        resolved to instruction indices.
    name:
        Human-readable workload name (used in reports).
    entry:
        Instruction index where execution begins.
    code_base:
        Byte address of instruction index 0.
    data_base, stack_base:
        Segment bases the workload generators use when initialising state.
    """

    instruction_bytes = 4

    def __init__(
        self,
        instructions: list[Instruction],
        name: str = "anonymous",
        entry: int = 0,
        code_base: int = DEFAULT_CODE_BASE,
        data_base: int = DEFAULT_DATA_BASE,
        stack_base: int = DEFAULT_STACK_BASE,
        labels: dict[str, int] | None = None,
    ) -> None:
        if not instructions:
            raise ValueError("a program must contain at least one instruction")
        if not 0 <= entry < len(instructions):
            raise ValueError(f"entry point {entry} out of range")
        self.instructions = instructions
        self.name = name
        self.entry = entry
        self.code_base = code_base
        self.data_base = data_base
        self.stack_base = stack_base
        self.labels = dict(labels or {})
        self._validate_targets()

    def _validate_targets(self) -> None:
        n = len(self.instructions)
        for index, inst in enumerate(self.instructions):
            needs_target = inst.opcode in (
                Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE,
                Opcode.JMP, Opcode.CALL,
            )
            if needs_target and not 0 <= inst.target < n:
                raise ValueError(
                    f"instruction {index} ({inst.opcode.name}) has "
                    f"unresolved or out-of-range target {inst.target}"
                )

    def __len__(self) -> int:
        return len(self.instructions)

    def __getstate__(self) -> dict:
        # The predecode cache (``_predecoded``, with its translated blocks)
        # is derived, holds unpicklable compiled functions, and is rebuilt
        # on first use.
        state = dict(self.__dict__)
        state.pop("_predecoded", None)
        return state

    def basic_blocks(self) -> list[BasicBlock]:
        """Partition the program into basic blocks.

        Block leaders are: the entry point, every control-transfer target,
        and every instruction following a control transfer.  The result is
        ordered by start index.  Used by the SimPoint basic-block-vector
        profiler.
        """
        n = len(self.instructions)
        leaders = {self.entry, 0}
        for index, inst in enumerate(self.instructions):
            if inst.is_control:
                if index + 1 < n:
                    leaders.add(index + 1)
                if inst.target >= 0:
                    leaders.add(inst.target)
        ordered = sorted(leaders)
        blocks: list[BasicBlock] = []
        for position, start in enumerate(ordered):
            end = ordered[position + 1] if position + 1 < len(ordered) else n
            blocks.append(BasicBlock(start=start, end=end))
        for block in blocks:
            last = self.instructions[block.end - 1]
            if last.is_control:
                if last.target >= 0:
                    block.successors.append(last.target)
                if last.is_cond_branch and block.end < n:
                    block.successors.append(block.end)
            elif block.end < n:
                block.successors.append(block.end)
        return blocks

    def __repr__(self) -> str:
        return (
            f"Program(name={self.name!r}, instructions={len(self)}, "
            f"entry={self.entry})"
        )
