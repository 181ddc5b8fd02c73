"""Unit tests for the set-associative cache: geometry, LRU, write policies."""

import pytest

from repro.cache import Cache, CacheConfig, WritePolicy
from repro.cache.cache import HIT, MISS
from tests.cache_state import dirty_lines, mru_order, resident, set_of


def make_cache(size=1024, line=64, assoc=4,
               policy=WritePolicy.WTNA) -> Cache:
    return Cache(CacheConfig(
        name="test", size_bytes=size, line_bytes=line,
        associativity=assoc, write_policy=policy, hit_latency=1,
    ))


class TestConfigValidation:
    def test_size_must_divide(self):
        with pytest.raises(ValueError):
            CacheConfig("x", 1000, 64, 4, WritePolicy.WTNA, 1)

    def test_line_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            CacheConfig("x", 960, 48, 4, WritePolicy.WTNA, 1)

    def test_positive_sizes(self):
        with pytest.raises(ValueError):
            CacheConfig("x", 0, 64, 4, WritePolicy.WTNA, 1)

    def test_num_sets(self):
        config = CacheConfig("x", 1024, 64, 4, WritePolicy.WTNA, 1)
        assert config.num_sets == 4

    @pytest.mark.parametrize("latency", (0, -1))
    def test_hit_latency_at_least_one_cycle(self, latency):
        # The timing core's fetch relies on a hit costing a cycle.
        with pytest.raises(ValueError, match="L1I: hit_latency"):
            CacheConfig("L1I", 1024, 64, 4, WritePolicy.WTNA, latency)
        assert CacheConfig("L1I", 1024, 64, 4, WritePolicy.WTNA,
                           1).hit_latency == 1


class TestAddressMath:
    def test_line_roundtrip(self):
        cache = make_cache()
        for address in (0x0, 0x40, 0x1000, 0xDEADBEC0):
            cache.access(address)
            rebuilt = mru_order(cache, set_of(cache, address))[0]
            assert rebuilt == address & -64

    def test_same_set_different_lines(self):
        cache = make_cache()  # 4 sets, 64B lines -> set stride 256B
        assert set_of(cache, 0x000) == set_of(cache, 0x100)
        cache.access(0x000)
        cache.access(0x100)
        assert mru_order(cache, set_of(cache, 0x000)) == [0x100, 0x000]


class TestHitMiss:
    def test_cold_miss_then_hit(self):
        cache = make_cache()
        assert cache.access(0x1000) == MISS
        assert cache.access(0x1000) == HIT

    def test_same_line_different_offsets_hit(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.access(0x103F) == HIT

    def test_lru_eviction_order(self):
        cache = make_cache(assoc=2, size=512)  # 4 sets
        stride = 4 * 64  # same set
        a, b, c = 0x0, stride, 2 * stride
        cache.access(a)
        cache.access(b)
        cache.access(c)                # evicts a (LRU)
        assert not resident(cache, a)
        assert resident(cache, b) and resident(cache, c)

    def test_hit_refreshes_recency(self):
        cache = make_cache(assoc=2, size=512)
        stride = 4 * 64
        a, b, c = 0x0, stride, 2 * stride
        cache.access(a)
        cache.access(b)
        cache.access(a)                # a becomes MRU
        cache.access(c)                # evicts b
        assert resident(cache, a) and resident(cache, c)
        assert not resident(cache, b)

    def test_inspection_does_not_disturb_state(self):
        # contents() and state_fingerprint() read the stores only: they
        # neither refresh recency nor count as accesses.
        cache = make_cache(assoc=2, size=512)
        stride = 4 * 64
        a, b, c = 0x0, stride, 2 * stride
        cache.access(a)
        cache.access(b)
        stats = dict(vars(cache.stats))
        assert cache.contents() == {a, b}
        cache.state_fingerprint()
        assert dict(vars(cache.stats)) == stats
        cache.access(c)                # evicts a (still LRU)
        assert not resident(cache, a)

    def test_stats_counting(self):
        cache = make_cache()
        cache.access(0x0)
        cache.access(0x0)
        cache.access(0x40)
        assert cache.stats.accesses == 3
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2


class TestWritePolicies:
    def test_wtna_write_miss_does_not_allocate(self):
        cache = make_cache(policy=WritePolicy.WTNA)
        assert cache.access(0x1000, is_write=True) == MISS
        assert not resident(cache, 0x1000)

    def test_wtna_write_hit_updates_recency(self):
        cache = make_cache(assoc=2, size=512, policy=WritePolicy.WTNA)
        stride = 4 * 64
        a, b, c = 0x0, stride, 2 * stride
        cache.access(a)
        cache.access(b)
        cache.access(a, is_write=True)  # refresh a
        cache.access(c)
        assert resident(cache, a)
        assert not resident(cache, b)

    def test_wtna_never_dirty(self):
        cache = make_cache(policy=WritePolicy.WTNA)
        cache.access(0x0)
        cache.access(0x0, is_write=True)
        assert not dirty_lines(cache)

    def test_wbwa_write_miss_allocates(self):
        cache = make_cache(policy=WritePolicy.WBWA)
        cache.access(0x1000, is_write=True)
        assert resident(cache, 0x1000)

    @pytest.mark.parametrize("line", (0x0, 0x1000))
    def test_wbwa_dirty_eviction_reports_writeback(self, line):
        cache = make_cache(assoc=1, size=256, policy=WritePolicy.WBWA)
        stride = 4 * 64
        cache.access(line + 8, is_write=True)    # dirty
        # Evicts the dirty line and returns its address, 0 included.
        assert cache.access(line + stride) == line
        assert cache.stats.writebacks == 1
        assert not resident(cache, line)

    def test_wbwa_clean_eviction_no_writeback(self):
        cache = make_cache(assoc=1, size=256, policy=WritePolicy.WBWA)
        stride = 4 * 64
        cache.access(0x0)                        # clean
        assert cache.access(stride) == MISS
        assert not resident(cache, 0x0) and resident(cache, stride)
        assert (cache.stats.evictions, cache.stats.writebacks) == (1, 0)

    def test_wtna_eviction_never_writes_back(self):
        cache = make_cache(assoc=1, size=256, policy=WritePolicy.WTNA)
        stride = 4 * 64
        cache.access(0x0)
        cache.access(0x0, is_write=True)         # a write hit: still clean
        assert cache.access(stride) == MISS
        assert not resident(cache, 0x0)


class TestMaintenance:
    def test_fresh_cache_shares_no_state(self):
        # A cold cache is a new one built from the same config; its
        # per-set stores must be its own, row by row.
        config = make_cache().config
        used = Cache(config)
        used.access(0x0)
        used.access(0x40)
        fresh = Cache(config)
        assert fresh.contents() == set()
        assert vars(fresh.stats) == vars(type(fresh.stats)())
        assert fresh.access(0x40) == MISS
        assert used.contents() == {0x0, 0x40}
        # Filling one set leaves every other set empty.
        for way in range(fresh.associativity):
            fresh.access(0x40 + way * fresh.num_sets * 64)
        assert [len(mru_order(fresh, s)) for s in range(fresh.num_sets)] \
            == [0, fresh.associativity, 0, 0]

    def test_contents_lists_lines(self):
        cache = make_cache()
        cache.access(0x0)
        cache.access(0x40)
        assert cache.contents() == {0x0, 0x40}

    def test_fingerprint_changes_with_recency(self):
        cache = make_cache(assoc=2, size=512)
        stride = 4 * 64
        cache.access(0x0)
        cache.access(stride)
        before = cache.state_fingerprint()
        cache.access(0x0)  # same contents, different recency
        assert cache.state_fingerprint() != before

    def test_updates_counter_tracks_accesses(self):
        cache = make_cache()
        for i in range(5):
            cache.access(i * 64)
        assert cache.stats.updates == 5
