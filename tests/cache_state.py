"""Read a cache's contents in tests through its stores; the cache keeps
no query that only tests would call.

Every test that looks inside a :class:`~repro.cache.Cache` does it
through these helpers, so a change of its layout edits this file alone.
Lines are given by their byte address (the address of their first
byte), as :meth:`~repro.cache.Cache.contents` gives them.
"""


def _address(cache, line: int) -> int:
    return line * cache.config.line_bytes


def resident(cache, address: int) -> bool:
    """Is the line holding `address` in `cache`?  Changes no state."""
    line = address // cache.config.line_bytes
    return line in cache.rows[line % cache.num_sets]


def set_of(cache, address: int) -> int:
    """The set of `cache` the line holding `address` maps to."""
    return address // cache.config.line_bytes % cache.num_sets


def mru_order(cache, set_index: int) -> list[int]:
    """The lines resident in set `set_index`, most recently used first."""
    return [_address(cache, line) for line in cache.rows[set_index]
            if line >= 0]


def reconstructed(cache, set_index: int) -> list[int]:
    """The lines of set `set_index` the current reverse pass has
    reconstructed, in reconstruction rank (the newest reference first)."""
    return [_address(cache, line)
            for line in cache.rows[set_index][:cache.recon_count[set_index]]]


def dirty_lines(cache) -> set[int]:
    """The dirty resident lines of `cache`."""
    return {_address(cache, line) for line in cache.dirty}


def observable(cache) -> tuple:
    """What an access of `cache` shows: the hit, miss, eviction and
    write-back counters, each set's lines (most recently used first) and
    the dirty lines."""
    stats = cache.stats
    return ((stats.hits, stats.misses, stats.evictions, stats.writebacks),
            [mru_order(cache, s) for s in range(cache.num_sets)],
            dirty_lines(cache))


def full_state(cache) -> tuple:
    """Everything `cache` holds: every counter, each set's lines and
    reconstructed lines, and the dirty lines."""
    return (vars(cache.stats), observable(cache)[1:],
            [reconstructed(cache, s) for s in range(cache.num_sets)])
