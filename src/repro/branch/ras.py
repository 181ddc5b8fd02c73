"""Finite return address stack.

Modelled as a circular buffer: pushes beyond capacity silently overwrite
the oldest entry, pops of an empty stack return a garbage (zero) target —
both behaviours match real hardware and matter for reconstruction fidelity.
:meth:`~repro.branch.BranchPredictor.update` pushes and pops; this class
holds the state, the prediction and the reverse-reconstruction entry.
"""

from __future__ import annotations

from .config import PredictorConfig


class ReturnAddressStack:
    """Circular return-address stack of `config.ras_entries` slots."""

    def __init__(self, config: PredictorConfig) -> None:
        self.config = config
        self.size = config.ras_entries
        self.stack = [0] * self.size
        self.top = self.size - 1  # index of the most recent push
        self.depth = 0            # live entries (<= size)
        self.pushes = 0
        self.pops = 0

    def peek(self) -> int:
        """Predicted return target (top of stack) without popping."""
        if self.depth == 0:
            return 0
        return self.stack[self.top]

    def contents_from_top(self) -> list[int]:
        """Live entries ordered from most to least recent."""
        return [
            self.stack[(self.top - offset) % self.size]
            for offset in range(self.depth)
        ]

    def set_contents(self, addresses_from_top: list[int]) -> None:
        """Overwrite the stack (used by reverse reconstruction).

        `addresses_from_top` is ordered most-recent first and is truncated
        to the stack capacity.
        """
        live = list(addresses_from_top[: self.size])
        self.depth = len(live)
        self.top = self.size - 1
        for offset, address in enumerate(live):
            self.stack[(self.top - offset) % self.size] = address

    def reset(self) -> None:
        self.stack = [0] * self.size
        self.top = self.size - 1
        self.depth = 0
        self.pushes = 0
        self.pops = 0
