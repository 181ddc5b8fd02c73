"""Functional (architectural-state) simulation."""

from .memory import Memory, WORD_BYTES
from .machine import FunctionalMachine, StepResult, to_signed
from .checkpoint import FunctionalCheckpoint

__all__ = [
    "Memory",
    "WORD_BYTES",
    "FunctionalMachine",
    "StepResult",
    "FunctionalCheckpoint",
    "to_signed",
]
