"""Gshare pattern history table with a global history register.

The PHT index is the XOR of the branch PC and the global history register,
masked to the table size.
"""

from __future__ import annotations

from .config import PredictorConfig
from .counters import WEAK_NOT_TAKEN, predict_taken


class GsharePHT:
    """Pattern history table of 2-bit counters, indexed by PC xor GHR."""

    def __init__(self, config: PredictorConfig) -> None:
        self.config = config
        self.entries = config.pht_entries
        self._mask = self.entries - 1
        self.history_bits = config.history_bits
        self._history_mask = (1 << self.history_bits) - 1
        #: Counters initialised to weakly-not-taken, the usual reset state.
        self.counters = [WEAK_NOT_TAKEN] * self.entries
        self.history = 0
        self.lookups = 0
        self.updates = 0

    def index(self, pc: int, history: int | None = None) -> int:
        """PHT index for a branch at instruction index `pc`."""
        ghr = self.history if history is None else history
        return (pc ^ ghr) & self._mask

    def predict(self, pc: int) -> bool:
        """Predicted direction using the current GHR."""
        self.lookups += 1
        return predict_taken(self.counters[self.index(pc)])

    def set_history(self, history: int) -> None:
        """Overwrite the GHR (used by reconstruction)."""
        self.history = history & self._history_mask
