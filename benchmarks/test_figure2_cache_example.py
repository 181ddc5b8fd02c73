"""Figure 2: reverse reconstruction of an individual cache set.

Regenerates the paper's worked example (stale set + stream E, A, F, C)
and benchmarks the cache-reconstruction primitive over a realistic logged
stream to quantify the applied/skipped split.
"""

import numpy as np

from conftest import emit
from repro.cache import Cache, CacheConfig, MemoryHierarchy, WritePolicy, \
    paper_hierarchy_config
from repro.core import REF_LOAD, ReverseCacheReconstructor
from repro.harness import format_table
from tests.oracle_skiplog import SkipRegionLog


def _figure2_cache():
    cache = Cache(CacheConfig("fig2", 256, 64, 4, WritePolicy.WTNA, 1))
    for letter in "CDAB":  # leaves stale order B A D C (MRU..LRU)
        cache.access((ord(letter) - ord("A") + 4) * 256)
    return cache


def test_figure2_worked_example(benchmark):
    addresses = {c: (ord(c) - ord("A") + 4) * 256 for c in "ABCDEF"}

    forward = _figure2_cache()
    for letter in "EAFC":
        forward.access(addresses[letter])

    def reverse_pass():
        cache = _figure2_cache()
        cache.begin_reconstruction()
        outcomes = []
        for letter in reversed("EAFC"):
            outcomes.append(cache.reconstruct_reference(addresses[letter]))
        return cache, outcomes

    cache, outcomes = benchmark.pedantic(reverse_pass, rounds=50,
                                         iterations=10)
    assert cache.state_fingerprint() == forward.state_fingerprint()
    assert outcomes == [True, True, True, True]

    def describe(c):
        return [
            "-" if t is None else chr(ord("A") + t // 4 - 4)
            for t in c.state_fingerprint()[0]
        ]

    text = format_table(
        ["simulation", "MRU", "", "", "LRU"],
        [["normal (forward)"] + describe(forward),
         ["reverse reconstruction"] + describe(cache)],
        title="Figure 2: reverse reconstruction of an individual cache set "
              "(stale B A D C; stream E A F C)",
    )
    emit("figure2_cache_example", text)


def test_figure2_bulk_reconstruction_rates(benchmark):
    """Reconstruction over a realistic stream: most logged references are
    skipped as redundant — the savings the paper's §3.1 promises."""
    hierarchy = MemoryHierarchy(paper_hierarchy_config(scale=32))
    rng = np.random.default_rng(7)
    log = SkipRegionLog()
    window = 0
    for _position in range(20_000):
        window += 1
        offset = int(rng.integers(0, 512))
        address = ((window // 16 + offset) % 4096) * 64
        log.memory_records.append((0x1000_0000 + address, REF_LOAD))

    reconstructor = ReverseCacheReconstructor(hierarchy)
    stats = benchmark.pedantic(
        lambda: reconstructor.reconstruct(log, fraction=1.0),
        rounds=3, iterations=1,
    )
    assert stats.scanned == 20_000
    assert stats.applied <= (
        hierarchy.l1d.num_sets * hierarchy.l1d.associativity
        + hierarchy.l2.num_sets * hierarchy.l2.associativity
    )
    # The whole point: the vast majority of the log is skipped.
    assert stats.skip_fraction > 0.8
