"""Two-level memory hierarchy with split L1, unified L2, and buses.

Mirrors the paper's §4 framework: write-through no-allocate L1 instruction
and data caches in front of a write-back write-allocate unified L2, an L1
bus shared by both L1s, and an L2 bus to main memory.

Two access families are provided:

- :meth:`MemoryHierarchy.timed_access` — updates cache state *and* returns
  the access latency in core cycles, modelling bus contention.  Used by
  hot (detailed) simulation.
- :meth:`MemoryHierarchy.warm_access` — updates cache state only, with no
  timing.  Used by functional (SMARTS-style) warming.  The state change is
  identical to the timed path.
"""

from __future__ import annotations

from .bus import Bus
from .cache import HIT, Cache
from .config import HierarchyConfig, WritePolicy, paper_hierarchy_config


class MemoryHierarchy:
    """L1I + L1D + unified L2 + two buses + flat main memory."""

    def __init__(self, config: HierarchyConfig | None = None) -> None:
        self.config = config if config is not None else paper_hierarchy_config()
        self.l1i = Cache(self.config.l1i)
        self.l1d = Cache(self.config.l1d)
        self.l2 = Cache(self.config.l2)
        self.l1_bus = Bus(self.config.l1_bus)
        self.l2_bus = Bus(self.config.l2_bus)
        self.memory_accesses = 0
        # Per-access constants, hoisted out of the hot access paths (the
        # write-policy enum compare costs three attribute loads per call).
        self._l1i_wtna = self.config.l1i.write_policy is WritePolicy.WTNA
        self._l1d_wtna = self.config.l1d.write_policy is WritePolicy.WTNA
        self._l1i_hit_latency = self.config.l1i.hit_latency
        self._l1d_hit_latency = self.config.l1d.hit_latency
        self._l2_hit_latency = self.config.l2.hit_latency
        self._l1_line_bytes = (
            self.config.l1i.line_bytes, self.config.l1d.line_bytes
        )
        self._l2_line_bytes = self.config.l2.line_bytes
        self._memory_latency = self.config.memory_latency

    # -- internal: one L2-and-below round trip -------------------------------

    def _l2_fill(self, address: int, is_write: bool, now: int) -> int:
        """Access L2 (and memory below it); return completion time."""
        line_bytes = self._l2_line_bytes
        outcome = self.l2.access(address, is_write)
        time = now + self._l2_hit_latency
        if outcome != HIT:
            self.memory_accesses += 1
            # Miss: fetch the line across the L2 bus from memory.
            time += self._memory_latency
            time = self.l2_bus.request(time, line_bytes)
            if outcome >= 0:
                # Dirty victim drains to memory; occupies the bus after
                # our fill.
                self.l2_bus.request(time, line_bytes)
        return time

    # -- timed accesses (hot simulation) --------------------------------------

    def timed_access(
        self, address: int, is_write: bool, is_instruction: bool, now: int
    ) -> int:
        """Access the hierarchy at core-cycle `now`; return latency in cycles."""
        if is_instruction:
            l1 = self.l1i
            l1_wtna = self._l1i_wtna
            hit_latency = self._l1i_hit_latency
            line_bytes = self._l1_line_bytes[0]
        else:
            l1 = self.l1d
            l1_wtna = self._l1d_wtna
            hit_latency = self._l1d_hit_latency
            line_bytes = self._l1_line_bytes[1]
        outcome = l1.access(address, is_write)

        if is_write and l1_wtna:
            # Write-through: the word crosses the L1 bus and updates L2
            # (a write miss does not allocate).  A hit retires at L1 speed
            # while the write drains in the background, still occupying
            # bus and L2 bandwidth; a miss completes once the bus accepts
            # it.
            drain = self.l1_bus.request(now + hit_latency, 8)
            self._l2_fill(address, True, drain)
            return hit_latency if outcome == HIT else drain - now
        if outcome == HIT:
            return hit_latency

        # Read miss (or WBWA write miss): fetch line from L2 via the L1 bus.
        request_time = self.l1_bus.request(now + hit_latency, 8)
        fill_time = self._l2_fill(address, is_write, request_time)
        finish = self.l1_bus.request(fill_time, line_bytes)
        if outcome >= 0:
            # Dirty L1 victim (only possible for WBWA L1s) drains afterwards.
            drain = self.l1_bus.request(finish, line_bytes)
            self._l2_fill(outcome, True, drain)
        return finish - now

    # -- untimed accesses (functional warming / cold-state repair) -----------

    def warm_access(
        self, address: int, is_write: bool, is_instruction: bool
    ) -> None:
        """Apply the state effect of one access with no timing.

        Follows the same miss/write-through paths as :meth:`timed_access`
        so warmed state matches what detailed simulation would produce.
        """
        if is_instruction:
            outcome = self.l1i.access(address, is_write)
            l1_wtna = self._l1i_wtna
        else:
            outcome = self.l1d.access(address, is_write)
            l1_wtna = self._l1d_wtna
        if is_write and l1_wtna:
            self.l2.access(address, True)
        elif outcome != HIT:
            self.l2.access(address, is_write)
            if outcome >= 0:
                self.l2.access(outcome, True)

    # -- maintenance ----------------------------------------------------------

    def total_updates(self) -> int:
        """Total state-changing cache operations (warm-up cost metric)."""
        return (
            self.l1i.stats.updates
            + self.l1d.stats.updates
            + self.l2.stats.updates
        )

    def caches(self) -> tuple[Cache, Cache, Cache]:
        return self.l1i, self.l1d, self.l2

    def __repr__(self) -> str:
        return f"MemoryHierarchy({self.l1i!r}, {self.l1d!r}, {self.l2!r})"
