"""Read a cache's contents in tests through its stores; the cache keeps
no query that only tests would call."""


def resident(cache, address: int) -> bool:
    """Is the line holding `address` in `cache`?  Changes no state."""
    set_index, tag = cache.split_address(address)
    return tag in cache._tag_rows[set_index]
