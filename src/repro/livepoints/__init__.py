"""Live-points: reusable warmed checkpoints for sampled simulation."""

from .library import (
    LivePointLibrary,
    LivePointReplayResult,
)

__all__ = [
    "LivePointLibrary",
    "LivePointReplayResult",
]
