"""Direct-mapped branch target buffer.

The paper reconstructs the BTB "similar to the cache reconstruction since
the BTB can be viewed as a direct mapped cache indicating the taken branch
target" (§3.2).  Per-entry reconstructed bits support that reverse pass:
in a direct-mapped structure the first (most recent) logged taken branch
to claim an entry wins and all older claimants are ignored.
"""

from __future__ import annotations

from .config import PredictorConfig


class BranchTargetBuffer:
    """Direct-mapped BTB tagged by branch instruction index."""

    def __init__(self, config: PredictorConfig) -> None:
        self.config = config
        self.entries = config.btb_entries
        self._mask = self.entries - 1
        self.tags: list[int | None] = [None] * self.entries
        self.targets: list[int] = [0] * self.entries
        self.reconstructed = [False] * self.entries
        # Templates for slice fills that keep each list's identity.
        self._empty_tags = [None] * self.entries
        self._zero_targets = [0] * self.entries
        self._cleared = [False] * self.entries
        self.lookups = 0
        self.updates = 0

    def index(self, pc: int) -> int:
        return pc & self._mask

    def lookup(self, pc: int) -> int | None:
        """Predicted target for the branch at `pc`, or None on BTB miss."""
        self.lookups += 1
        entry = pc & self._mask
        if self.tags[entry] == pc:
            return self.targets[entry]
        return None

    def reconstruct(self, pc: int, target: int) -> bool:
        """Reverse-order reconstruction: first claimant of an entry wins.

        Returns True if the entry was written, False if it was already
        reconstructed by a more recent branch.
        """
        entry = pc & self._mask
        if self.reconstructed[entry]:
            return False
        self.tags[entry] = pc
        self.targets[entry] = target
        self.reconstructed[entry] = True
        self.updates += 1
        return True

    def clear_reconstructed(self) -> None:
        self.reconstructed[:] = self._cleared

    def reset(self) -> None:
        self.tags[:] = self._empty_tags
        self.targets[:] = self._zero_targets
        self.reconstructed[:] = self._cleared
        self.lookups = 0
        self.updates = 0
