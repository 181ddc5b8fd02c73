"""Unit tests for the two-level memory hierarchy.

The central invariant: :meth:`warm_access` (used by SMARTS-style warming)
must leave the caches in exactly the state :meth:`timed_access` (used by
detailed simulation) produces for the same reference stream.
"""

import numpy as np
import pytest

from repro.cache import MemoryHierarchy, paper_hierarchy_config


@pytest.fixture
def hierarchy():
    return MemoryHierarchy(paper_hierarchy_config(scale=16))


class TestLatencies:
    def test_l1_hit_is_fast(self, hierarchy):
        hierarchy.timed_access(0x1000, False, False, 0)
        latency = hierarchy.timed_access(0x1000, False, False, 1000)
        assert latency == hierarchy.l1d.config.hit_latency

    def test_l2_hit_slower_than_l1_hit(self, hierarchy):
        hierarchy.timed_access(0x1000, False, False, 0)
        # Evict from tiny L1D but not from L2.
        sets = hierarchy.l1d.num_sets
        assoc = hierarchy.l1d.associativity
        stride = sets * 64
        for way in range(assoc):
            hierarchy.timed_access(0x100000 + way * stride, False, False, 0)
        latency = hierarchy.timed_access(0x1000, False, False, 10_000)
        assert latency > hierarchy.l1d.config.hit_latency
        miss_latency = hierarchy.timed_access(0x900000, False, False, 20_000)
        assert miss_latency > latency  # full miss costs more than L2 hit

    def test_memory_miss_includes_dram_latency(self, hierarchy):
        latency = hierarchy.timed_access(0x5000, False, False, 0)
        assert latency >= hierarchy.config.memory_latency

    def test_wtna_store_completes_at_bus_acceptance(self, hierarchy):
        latency = hierarchy.timed_access(0x7000, True, False, 0)
        # Store latency is bus acceptance, far below a full miss round trip.
        assert latency < hierarchy.config.memory_latency

    def test_instruction_accesses_use_l1i(self, hierarchy):
        hierarchy.timed_access(0x400000, False, True, 0)
        assert hierarchy.l1i.stats.accesses == 1
        assert hierarchy.l1d.stats.accesses == 0


class TestBusCoupling:
    def test_misses_occupy_buses(self, hierarchy):
        hierarchy.timed_access(0x1000, False, False, 0)
        assert hierarchy.l1_bus.transfers > 0
        assert hierarchy.l2_bus.transfers > 0

    def test_contention_raises_latency(self, hierarchy):
        # Two simultaneous misses: the second queues on the buses.
        first = hierarchy.timed_access(0x10000, False, False, 0)
        second = hierarchy.timed_access(0x20000, False, False, 0)
        assert second > first


class TestWarmEquivalence:
    """State warmed functionally == state from timed simulation."""

    def _random_stream(self, seed, count=4000):
        rng = np.random.default_rng(seed)
        addresses = rng.integers(0, 1 << 20, size=count) & ~0x7
        writes = rng.random(count) < 0.3
        instr = rng.random(count) < 0.2
        return [
            (int(a), bool(w), bool(i))
            for a, w, i in zip(addresses, writes, instr)
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_warm_matches_timed_state(self, seed):
        warm = MemoryHierarchy(paper_hierarchy_config(scale=16))
        timed = MemoryHierarchy(paper_hierarchy_config(scale=16))
        now = 0
        for address, is_write, is_instr in self._random_stream(seed):
            warm.warm_access(address, is_write, is_instr)
            now += timed.timed_access(address, is_write, is_instr, now)
        for cache_name in ("l1i", "l1d", "l2"):
            warm_cache = getattr(warm, cache_name)
            timed_cache = getattr(timed, cache_name)
            assert warm_cache.state_fingerprint() == \
                timed_cache.state_fingerprint(), cache_name

    def test_warm_counts_updates(self):
        hierarchy = MemoryHierarchy(paper_hierarchy_config(scale=16))
        hierarchy.warm_access(0x1000, False, False)
        assert hierarchy.total_updates() >= 2  # L1D + L2


class TestMaintenance:
    def test_fresh_hierarchy_is_cold(self, hierarchy):
        hierarchy.timed_access(0x1000, False, False, 0)
        hierarchy.warm_access(0x2000, True, False)
        fresh = MemoryHierarchy(hierarchy.config)
        for cache in fresh.caches():
            assert cache.contents() == set()
            assert cache.stats.accesses == 0
        for bus in (fresh.l1_bus, fresh.l2_bus):
            assert (bus.busy_until, bus.transfers) == (0, 0)
        assert fresh.memory_accesses == 0
        assert fresh.timed_access(0x1000, False, False, 0) \
            > hierarchy.timed_access(0x1000, False, False, 0)

    def test_caches_accessor(self, hierarchy):
        l1i, l1d, l2 = hierarchy.caches()
        assert l1i is hierarchy.l1i
        assert l1d is hierarchy.l1d
        assert l2 is hierarchy.l2
