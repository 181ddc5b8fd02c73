"""Unit tests for the set-associative cache: geometry, LRU, write policies."""

import pytest

from repro.cache import Cache, CacheConfig, WritePolicy
from repro.cache.cache import HIT, MISS


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


class TestAddressMath:
    def test_line_address(self):
        cache = make_cache()
        assert cache.line_address(0x12345) == 0x12340

    def test_split_roundtrip(self):
        cache = make_cache()
        for address in (0x0, 0x40, 0x1000, 0xDEADBEC0):
            set_index, tag = cache.split_address(address)
            rebuilt = cache._address_of(set_index, tag)
            assert rebuilt == cache.line_address(address)

    def test_same_set_different_tags(self):
        cache = make_cache()  # 4 sets, 64B lines -> set stride 256B
        s1, t1 = cache.split_address(0x000)
        s2, t2 = cache.split_address(0x100)
        assert s1 == s2
        assert t1 != t2


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
        assert not cache.probe(a)
        assert cache.probe(b) and cache.probe(c)

    def test_hit_refreshes_recency(self):
        cache = make_cache(assoc=2, size=512)
        stride = 4 * 64
        a, b, c = 0x0, stride, 2 * stride
        cache.access(a)
        cache.access(b)
        cache.access(a)                # a becomes MRU
        cache.access(c)                # evicts b
        assert cache.probe(a) and cache.probe(c)
        assert not cache.probe(b)

    def test_probe_does_not_disturb_state(self):
        cache = make_cache(assoc=2, size=512)
        stride = 4 * 64
        a, b, c = 0x0, stride, 2 * stride
        cache.access(a)
        cache.access(b)
        cache.probe(a)                 # must NOT refresh a
        cache.access(c)                # evicts a (still LRU)
        assert not cache.probe(a)

    def test_stats_counting(self):
        cache = make_cache()
        cache.access(0x0)
        cache.access(0x0)
        cache.access(0x40)
        assert cache.stats.accesses == 3
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.miss_rate() == pytest.approx(2 / 3)


class TestWritePolicies:
    def test_wtna_write_miss_does_not_allocate(self):
        cache = make_cache(policy=WritePolicy.WTNA)
        assert cache.access(0x1000, is_write=True) == MISS
        assert not cache.probe(0x1000)

    def test_wtna_write_hit_updates_recency(self):
        cache = make_cache(assoc=2, size=512, policy=WritePolicy.WTNA)
        stride = 4 * 64
        a, b, c = 0x0, stride, 2 * stride
        cache.access(a)
        cache.access(b)
        cache.access(a, is_write=True)  # refresh a
        cache.access(c)
        assert cache.probe(a)
        assert not cache.probe(b)

    def test_wtna_never_dirty(self):
        cache = make_cache(policy=WritePolicy.WTNA)
        cache.access(0x0)
        cache.access(0x0, is_write=True)
        assert not any(any(row) for row in cache.dirty)

    def test_wbwa_write_miss_allocates(self):
        cache = make_cache(policy=WritePolicy.WBWA)
        cache.access(0x1000, is_write=True)
        assert cache.probe(0x1000)

    @pytest.mark.parametrize("line", (0x0, 0x1000))
    def test_wbwa_dirty_eviction_reports_writeback(self, line):
        cache = make_cache(assoc=1, size=256, policy=WritePolicy.WBWA)
        stride = 4 * 64
        cache.access(line + 8, is_write=True)    # dirty
        # Evicts the dirty line and returns its address, 0 included.
        assert cache.access(line + stride) == line
        assert cache.stats.writebacks == 1
        assert not cache.probe(line)

    def test_wbwa_clean_eviction_no_writeback(self):
        cache = make_cache(assoc=1, size=256, policy=WritePolicy.WBWA)
        stride = 4 * 64
        cache.access(0x0)                        # clean
        assert cache.access(stride) == MISS
        assert not cache.probe(0x0) and cache.probe(stride)
        assert (cache.stats.evictions, cache.stats.writebacks) == (1, 0)

    def test_wtna_eviction_never_writes_back(self):
        cache = make_cache(assoc=1, size=256, policy=WritePolicy.WTNA)
        stride = 4 * 64
        cache.access(0x0)
        cache.access(0x0, is_write=True)         # a write hit: still clean
        assert cache.access(stride) == MISS
        assert not cache.probe(0x0)


class TestMaintenance:
    def test_reset_clears_everything(self):
        cache = make_cache()
        cache.access(0x0, is_write=False)
        cache.reset()
        assert not cache.probe(0x0)
        assert cache.stats.accesses == 0
        assert cache.contents() == set()

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
