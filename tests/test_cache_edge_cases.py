"""Edge-case coverage for the cache substrate: unusual geometries,
write-back L1 hierarchies, and reconstruction under them."""

import numpy as np

from repro.cache import (
    BusConfig,
    Cache,
    CacheConfig,
    HierarchyConfig,
    MemoryHierarchy,
    WritePolicy,
)
from tests.cache_state import mru_order, resident, set_of


def wbwa_l1_hierarchy() -> MemoryHierarchy:
    """A hierarchy with write-back L1s (not the paper's default) to
    exercise the dirty-victim L1 writeback paths."""
    return MemoryHierarchy(HierarchyConfig(
        l1i=CacheConfig("L1I", 2048, 64, 2, WritePolicy.WBWA, 1),
        l1d=CacheConfig("L1D", 1024, 64, 2, WritePolicy.WBWA, 1),
        l2=CacheConfig("L2", 16384, 64, 4, WritePolicy.WBWA, 8),
        l1_bus=BusConfig("L1bus", 16, 2),
        l2_bus=BusConfig("L2bus", 32, 1),
        memory_latency=60,
    ))


class TestNonPowerOfTwoSets:
    """CacheConfig allows set counts that are not powers of two (size
    divisible by line*assoc is the only constraint); address splitting
    must still round-trip."""

    def make(self):
        # 3 sets x 2 ways x 64B lines = 384 bytes.
        return Cache(CacheConfig("odd", 384, 64, 2, WritePolicy.WBWA, 1))

    def test_line_roundtrip(self):
        cache = self.make()
        for address in (0x0, 0x40, 0x80, 0xC0, 0x1000, 0xABCD40):
            set_index = set_of(cache, address)
            assert 0 <= set_index < 3
            cache.access(address)
            assert mru_order(cache, set_index)[0] == address & -64

    def test_distinct_lines_distinct_slots(self):
        for line in range(30):
            cache = self.make()
            cache.access(line * 64)
            assert [other for other in range(30)
                    if resident(cache, other * 64)] == [line]

    def test_access_and_reconstruction_work(self):
        cache = self.make()
        stream = [line * 64 for line in (0, 3, 6, 1, 4, 0, 9)]
        for address in stream:
            cache.access(address)
        forward = cache.state_fingerprint()

        reverse = self.make()
        reverse.begin_reconstruction()
        for address in reversed(stream):
            reverse.reconstruct_reference(address)
        assert reverse.state_fingerprint() == forward


class TestWritebackL1Hierarchy:
    def test_dirty_l1_victim_writes_back_through_l2(self):
        hierarchy = wbwa_l1_hierarchy()
        sets = hierarchy.l1d.num_sets
        stride = sets * 64
        hierarchy.timed_access(0x0, True, False, 0)        # dirty line
        hierarchy.timed_access(stride, False, False, 100)
        hierarchy.timed_access(2 * stride, False, False, 200)  # evicts dirty
        assert hierarchy.l1d.stats.writebacks >= 1

    def test_warm_access_matches_timed_state_with_wbwa_l1(self):
        warm = wbwa_l1_hierarchy()
        timed = wbwa_l1_hierarchy()
        rng = np.random.default_rng(3)
        now = 0
        for _ in range(4000):
            address = int(rng.integers(0, 1 << 18)) & ~0x7
            is_write = bool(rng.random() < 0.4)
            warm.warm_access(address, is_write, False)
            now += timed.timed_access(address, is_write, False, now)
        for name in ("l1d", "l2"):
            assert getattr(warm, name).state_fingerprint() == \
                getattr(timed, name).state_fingerprint(), name

    def test_wbwa_store_hit_is_fast(self):
        hierarchy = wbwa_l1_hierarchy()
        hierarchy.timed_access(0x40, True, False, 0)
        latency = hierarchy.timed_access(0x40, True, False, 1000)
        assert latency == hierarchy.l1d.config.hit_latency


class TestDirectMappedExtreme:
    def test_direct_mapped_cache(self):
        cache = Cache(CacheConfig("dm", 512, 64, 1, WritePolicy.WTNA, 1))
        cache.access(0x0)
        cache.access(512)     # same set, evicts
        assert not resident(cache, 0x0)
        assert resident(cache, 512)

    def test_fully_associative_cache(self):
        cache = Cache(CacheConfig("fa", 256, 64, 4, WritePolicy.WTNA, 1))
        assert cache.num_sets == 1
        for line in range(4):
            cache.access(line * 64)
        cache.access(0)        # refresh line 0
        cache.access(4 * 64)   # evicts line 1 (LRU)
        assert resident(cache, 0)
        assert not resident(cache, 64)


class TestReconstructionOnEmptyCache:
    def test_reconstruct_into_invalid_ways(self):
        cache = Cache(CacheConfig("c", 512, 64, 2, WritePolicy.WTNA, 1))
        cache.begin_reconstruction()
        assert cache.reconstruct_reference(0x0)
        assert resident(cache, 0x0)
        # The invalid companion way is untouched.
        assert mru_order(cache, set_of(cache, 0x0)) == [0x0]
