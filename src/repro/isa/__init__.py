"""Synthetic RISC instruction set: the ISA executed by both simulators."""

from .opcodes import (
    Opcode,
    LINK_REGISTER,
    STACK_POINTER,
    NUM_REGISTERS,
    EXECUTION_LATENCY,
    is_alu,
    is_conditional_branch,
    is_control,
)
from .instructions import Instruction
from .program import (
    Program,
    BasicBlock,
    DEFAULT_CODE_BASE,
    DEFAULT_DATA_BASE,
    DEFAULT_STACK_BASE,
)
from .builder import ProgramBuilder, UndefinedLabelError
from .assembler import assemble, AssemblyError

__all__ = [
    "Opcode",
    "LINK_REGISTER",
    "STACK_POINTER",
    "NUM_REGISTERS",
    "EXECUTION_LATENCY",
    "is_alu",
    "is_conditional_branch",
    "is_control",
    "Instruction",
    "Program",
    "BasicBlock",
    "DEFAULT_CODE_BASE",
    "DEFAULT_DATA_BASE",
    "DEFAULT_STACK_BASE",
    "ProgramBuilder",
    "UndefinedLabelError",
    "assemble",
    "AssemblyError",
]
