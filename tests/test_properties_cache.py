"""Property-based tests of the reverse cache-reconstruction invariant.

The central claim of paper §3.1: scanning the *complete* reference stream
in reverse and applying the reconstruction rules yields the same tag +
recency state as forward LRU simulation of that stream, for any stale
starting state.  (With partial streams the result is an approximation;
with the full stream and allocate-on-reference semantics it is exact.)
"""

from hypothesis import given, settings, strategies as st

from repro.cache import Cache, CacheConfig, WritePolicy


def make_pair(assoc, sets):
    config = CacheConfig(
        name="p", size_bytes=sets * assoc * 64, line_bytes=64,
        associativity=assoc, write_policy=WritePolicy.WBWA, hit_latency=1,
    )
    return Cache(config), Cache(config)


line_addresses = st.integers(min_value=0, max_value=63).map(
    lambda line: line * 64
)


@st.composite
def stale_and_stream(draw):
    assoc = draw(st.sampled_from([1, 2, 4]))
    sets = draw(st.sampled_from([1, 2, 4]))
    stale = draw(st.lists(line_addresses, min_size=0, max_size=12))
    stream = draw(st.lists(line_addresses, min_size=0, max_size=40))
    return assoc, sets, stale, stream


@given(stale_and_stream())
@settings(max_examples=200, deadline=None)
def test_full_reverse_scan_equals_forward_lru(case):
    assoc, sets, stale, stream = case
    forward, reverse = make_pair(assoc, sets)

    # Identical stale state on both caches.
    for address in stale:
        forward.access(address)
        reverse.access(address)

    # Forward cache simulates the skip region normally (reads: allocate-on-
    # reference semantics match reconstruction's conservative allocation).
    for address in stream:
        forward.access(address)

    # Reverse cache reconstructs from the logged stream, newest first.
    reverse.begin_reconstruction()
    for address in reversed(stream):
        reverse.reconstruct_reference(address)

    assert forward.state_fingerprint() == reverse.state_fingerprint()


@given(stale_and_stream())
@settings(max_examples=100, deadline=None)
def test_reconstruction_applies_at_most_capacity_per_set(case):
    assoc, sets, stale, stream = case
    _, cache = make_pair(assoc, sets)
    for address in stale:
        cache.access(address)
    cache.begin_reconstruction()
    applied = sum(
        1 for address in reversed(stream)
        if cache.reconstruct_reference(address)
    )
    assert applied <= assoc * sets
    assert applied == cache.stats.reconstruction_applied


@given(stale_and_stream())
@settings(max_examples=100, deadline=None)
def test_reconstructed_contents_are_stream_suffix_lines(case):
    """Every reconstructed block must correspond to some logged reference
    (no invented state)."""
    assoc, sets, stale, stream = case
    _, cache = make_pair(assoc, sets)
    for address in stale:
        cache.access(address)
    stale_lines = cache.contents()
    cache.begin_reconstruction()
    for address in reversed(stream):
        cache.reconstruct_reference(address)
    line_bytes = cache.config.line_bytes
    allowed = stale_lines | {a & -line_bytes for a in stream}
    assert cache.contents() <= allowed


@given(stale_and_stream())
@settings(max_examples=60, deadline=None)
def test_reconstruction_idempotent_under_redundant_suffix(case):
    """Replaying the stream tail twice in reverse changes nothing: all
    second-pass references hit reconstructed blocks or full sets."""
    assoc, sets, stale, stream = case
    _, cache = make_pair(assoc, sets)
    for address in stale:
        cache.access(address)
    cache.begin_reconstruction()
    for address in reversed(stream):
        cache.reconstruct_reference(address)
    fingerprint = cache.state_fingerprint()
    for address in reversed(stream):
        cache.reconstruct_reference(address)
    assert cache.state_fingerprint() == fingerprint


@given(
    st.lists(line_addresses, min_size=1, max_size=30),
    st.lists(st.booleans(), min_size=1, max_size=30),
)
@settings(max_examples=100, deadline=None)
def test_wbwa_write_reconstruction_matches_forward(addresses, writes):
    """With write-allocate caches, mixed load/store streams also match."""
    forward, reverse = make_pair(2, 2)
    stream = [
        (address, write)
        for address, write in zip(addresses, writes * len(addresses))
    ]
    for address, write in stream:
        forward.access(address, is_write=write)
    reverse.begin_reconstruction()
    for address, write in reversed(stream):
        reverse.reconstruct_reference(address, is_write=write)
    assert forward.state_fingerprint() == reverse.state_fingerprint()
