"""Detailed (hot) timing simulation of the out-of-order core."""

from .config import CoreConfig, paper_core_config
from .core import TimingSimulator, TimingResult

__all__ = [
    "CoreConfig",
    "paper_core_config",
    "TimingSimulator",
    "TimingResult",
]
