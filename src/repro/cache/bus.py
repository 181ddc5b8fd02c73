"""Bus model: arbitration, contention, and transfer delay.

The paper's §4 models two buses: a 16-byte 1 GHz bus shared by the L1
caches (to L2) and a 32-byte 2 GHz bus from L2 to main memory.  Each bus
serialises transfers: a request issued while the bus is busy waits until
the in-flight transfer drains (contention), then occupies the bus for the
transfer duration.
"""

from __future__ import annotations

from .config import BusConfig


class _TransferCycles(dict):
    """``num_bytes -> config.transfer_cycles(num_bytes)``, computed once
    per size (a bus sees two: a word and a line)."""

    def __init__(self, config: BusConfig) -> None:
        super().__init__()
        self._config = config

    def __missing__(self, num_bytes: int) -> int:
        self[num_bytes] = cycles = self._config.transfer_cycles(num_bytes)
        return cycles


class Bus:
    """A single shared bus with first-come-first-served arbitration."""

    def __init__(self, config: BusConfig) -> None:
        self.config = config
        #: ``config.transfer_cycles`` by transfer size, filled on first use.
        self._cycles = _TransferCycles(config)
        #: Core-cycle time at which the current transfer completes.
        self.busy_until = 0
        self.transfers = 0
        self.bytes_moved = 0
        self.contention_cycles = 0

    def request(self, now: int, num_bytes: int) -> int:
        """Schedule a transfer of `num_bytes` starting no earlier than `now`.

        Returns the core-cycle time at which the transfer completes.  The
        caller's latency is ``completion - now`` (queueing + transfer).
        """
        start = now if now >= self.busy_until else self.busy_until
        self.contention_cycles += start - now
        completion = start + self._cycles[num_bytes]
        self.busy_until = completion
        self.transfers += 1
        self.bytes_moved += num_bytes
        return completion

    def rewind(self) -> None:
        """Clear the transfer schedule but keep statistics.

        The timing core's cycle counter restarts at zero for every hot
        run; the bus schedule must restart with it.
        """
        self.busy_until = 0

    def __repr__(self) -> str:
        return f"Bus({self.config.name}, busy_until={self.busy_until})"
