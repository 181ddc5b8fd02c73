"""Cache and memory-hierarchy configuration records.

Defaults follow the paper's §4 experimental framework, with sizes scaled
down by a constant factor so the (much shorter) synthetic workloads exert
comparable pressure on the hierarchy.  Pass ``scale=1`` to
:func:`paper_hierarchy_config` for the paper's literal geometry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class WritePolicy(enum.Enum):
    """Write-hit/write-miss handling."""

    #: Write-through, no-write-allocate (paper's L1 I/D policy).
    WTNA = "write-through-no-allocate"
    #: Write-back, write-allocate (paper's L2 policy).
    WBWA = "write-back-write-allocate"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of a single cache level."""

    name: str
    size_bytes: int
    line_bytes: int
    associativity: int
    write_policy: WritePolicy
    hit_latency: int  # core cycles

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0:
            raise ValueError("cache sizes must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"line*assoc ({self.line_bytes}*{self.associativity})"
            )
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line size must be a power of two")
        if self.hit_latency < 1:
            # The timing blocks clamp the fetch only at a block's first
            # instruction, which is exact only when a hit costs a cycle.
            raise ValueError(
                f"{self.name}: hit_latency {self.hit_latency} must be at "
                f"least 1"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass(frozen=True)
class BusConfig:
    """A shared bus between two hierarchy levels.

    Latencies are expressed in *core* cycles; `cycles_per_beat` is the
    number of core cycles one bus beat takes (core frequency / bus
    frequency).
    """

    name: str
    width_bytes: int
    cycles_per_beat: int

    def transfer_cycles(self, num_bytes: int) -> int:
        """Core cycles to move `num_bytes` across the bus."""
        beats = -(-num_bytes // self.width_bytes)  # ceil division
        return beats * self.cycles_per_beat


@dataclass(frozen=True)
class HierarchyConfig:
    """Complete memory-hierarchy description."""

    l1i: CacheConfig
    l1d: CacheConfig
    l2: CacheConfig
    l1_bus: BusConfig
    l2_bus: BusConfig
    memory_latency: int  # core cycles for a DRAM access, excluding buses


def paper_hierarchy_config(scale: int = 16) -> HierarchyConfig:
    """The paper's hierarchy, optionally scaled down by `scale`.

    Paper values (scale=1): L1D 32 KB 4-way WTNA, L1I 64 KB 4-way WTNA,
    L2 1 MB 8-way WBWA, all 64-byte lines.  L1 bus 16 B @ 1 GHz, L2 bus
    32 B @ 2 GHz, 2 GHz core.  `scale` divides capacities (associativity
    and line size are preserved) so that synthetic workloads of a few
    million instructions see realistic miss behaviour.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    return HierarchyConfig(
        l1i=CacheConfig(
            name="L1I",
            size_bytes=64 * 1024 // scale,
            line_bytes=64,
            associativity=4,
            write_policy=WritePolicy.WTNA,
            hit_latency=1,
        ),
        l1d=CacheConfig(
            name="L1D",
            size_bytes=32 * 1024 // scale,
            line_bytes=64,
            associativity=4,
            write_policy=WritePolicy.WTNA,
            hit_latency=1,
        ),
        l2=CacheConfig(
            name="L2",
            size_bytes=1024 * 1024 // scale,
            line_bytes=64,
            associativity=8,
            write_policy=WritePolicy.WBWA,
            hit_latency=8,
        ),
        # 2 GHz core: the 1 GHz L1 bus takes 2 core cycles per beat, the
        # 2 GHz L2 bus takes 1.
        l1_bus=BusConfig(name="L1bus", width_bytes=16, cycles_per_beat=2),
        l2_bus=BusConfig(name="L2bus", width_bytes=32, cycles_per_beat=1),
        memory_latency=60,
    )
