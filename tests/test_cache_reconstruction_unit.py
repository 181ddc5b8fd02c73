"""Unit tests for the reverse-reconstruction cache primitives, including
the paper's Figure 2 worked example."""

from repro.cache import Cache, CacheConfig, WritePolicy
from tests.cache_state import (
    dirty_lines, mru_order, reconstructed, resident, set_of,
)


def make_cache(assoc=4, sets=1, policy=WritePolicy.WTNA) -> Cache:
    return Cache(CacheConfig(
        name="t", size_bytes=sets * assoc * 64, line_bytes=64,
        associativity=assoc, write_policy=policy, hit_latency=1,
    ))


def fill_set(cache, tags):
    """Forward-fill one set so `tags[0]` is LRU and `tags[-1]` is MRU."""
    for tag in tags:
        cache.access(tag)


class TestFigure2Example:
    """Paper Figure 2: stale set [B, A, D, C] (MRU..LRU), forward stream
    E, A, F, C; normal simulation and reverse reconstruction must agree."""

    def setup_method(self):
        self.cache = make_cache(assoc=4, sets=1)
        # Establish stale state: access C, D, A, B so B is MRU, C is LRU.
        self.B, self.A, self.D, self.C = 0x100, 0x200, 0x300, 0x400
        self.E, self.F = 0x500, 0x600
        fill_set(self.cache, [self.C, self.D, self.A, self.B])

    def test_forward_simulation_reference(self):
        for address in (self.E, self.A, self.F, self.C):
            self.cache.access(address)
        # Forward result: C MRU, then F, A, E.
        assert mru_order(self.cache, 0) == [self.C, self.F, self.A, self.E]

    def test_reverse_reconstruction_matches_forward(self):
        forward = make_cache(assoc=4, sets=1)
        fill_set(forward, [self.C, self.D, self.A, self.B])
        for address in (self.E, self.A, self.F, self.C):
            forward.access(address)

        self.cache.begin_reconstruction()
        for address in (self.C, self.F, self.A, self.E):  # reverse order
            self.cache.reconstruct_reference(address)
        assert mru_order(self.cache, 0) == mru_order(forward, 0)

    def test_reconstruction_ranks_by_discovery(self):
        self.cache.begin_reconstruction()
        self.cache.reconstruct_reference(self.C)
        self.cache.reconstruct_reference(self.F)
        # C discovered first -> MRU; F second.
        assert mru_order(self.cache, 0)[:2] == [self.C, self.F]


class TestReconstructionRules:
    def test_redundant_reference_ignored(self):
        cache = make_cache()
        cache.begin_reconstruction()
        assert cache.reconstruct_reference(0x100)
        assert not cache.reconstruct_reference(0x100)
        assert cache.stats.reconstruction_skipped == 1

    def test_fully_reconstructed_set_ignores_all(self):
        cache = make_cache(assoc=2)
        cache.begin_reconstruction()
        assert cache.reconstruct_reference(0x100)
        assert cache.reconstruct_reference(0x200)
        assert len(reconstructed(cache, 0)) == cache.associativity
        assert not cache.reconstruct_reference(0x300)
        assert not resident(cache, 0x300)

    def test_present_stale_block_promoted_not_reinserted(self):
        cache = make_cache()
        fill_set(cache, [0x100, 0x200])
        evictions_before = cache.stats.evictions
        cache.begin_reconstruction()
        cache.reconstruct_reference(0x100)
        assert cache.stats.evictions == evictions_before
        assert resident(cache, 0x200)  # untouched stale survivor

    def test_absent_block_replaces_stale_lru(self):
        cache = make_cache(assoc=2)
        fill_set(cache, [0x100, 0x200])  # 0x100 is LRU
        cache.begin_reconstruction()
        cache.reconstruct_reference(0x300)
        assert not resident(cache, 0x100)
        assert resident(cache, 0x200)

    def test_stale_survivors_rank_below_reconstructed(self):
        cache = make_cache(assoc=4)
        fill_set(cache, [0x100, 0x200, 0x300, 0x400])  # 0x400 MRU
        cache.begin_reconstruction()
        cache.reconstruct_reference(0x500)
        order = mru_order(cache, 0)
        assert order[0] == 0x500
        # Stale survivors keep relative order behind the reconstructed one.
        assert order[1:] == [0x400, 0x300, 0x200]

    def test_wbwa_reconstructed_store_sets_dirty(self):
        cache = make_cache(policy=WritePolicy.WBWA)
        cache.begin_reconstruction()
        cache.reconstruct_reference(0x100, is_write=True)
        assert mru_order(cache, set_of(cache, 0x100))[0] == 0x100
        assert 0x100 in dirty_lines(cache)

    def test_wtna_allocates_on_reconstructed_write(self):
        # Paper: "the block is allocated even if the access is a write".
        cache = make_cache(policy=WritePolicy.WTNA)
        cache.begin_reconstruction()
        assert cache.reconstruct_reference(0x100, is_write=True)
        assert resident(cache, 0x100)

    def test_begin_reconstruction_clears_bits(self):
        cache = make_cache()
        cache.begin_reconstruction()
        cache.reconstruct_reference(0x100)
        cache.begin_reconstruction()
        assert reconstructed(cache, 0) == []
        # The same reference applies again after a new begin.
        assert cache.reconstruct_reference(0x100)

    def test_reconstruction_counts_in_stats(self):
        cache = make_cache(assoc=2)
        cache.begin_reconstruction()
        cache.reconstruct_reference(0x100)
        cache.reconstruct_reference(0x100)
        cache.reconstruct_reference(0x200)
        cache.reconstruct_reference(0x300)
        assert cache.stats.reconstruction_applied == 2
        assert cache.stats.reconstruction_skipped == 2
