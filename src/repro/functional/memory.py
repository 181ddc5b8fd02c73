"""Sparse data memory for the functional simulator.

The synthetic workloads touch gigabyte-spanning address ranges but only a
few megabytes of distinct words, so memory is a dictionary keyed by
word-aligned byte address.  Unwritten locations read as zero, which the
workload generators rely on for zero-initialised arrays.
"""

from __future__ import annotations

WORD_BYTES = 8
_WORD_MASK = ~(WORD_BYTES - 1)


class Memory:
    """Word-granular sparse memory.

    Addresses are byte addresses; accesses are aligned down to the
    containing 8-byte word.  Values are stored as Python ints masked to
    64 bits by the callers (the machine masks on write).
    """

    __slots__ = ("_words",)

    def __init__(self) -> None:
        self._words: dict[int, int] = {}

    def load(self, address: int) -> int:
        """Read the word containing `address` (0 if never written)."""
        return self._words.get(address & _WORD_MASK, 0)

    def store(self, address: int, value: int) -> None:
        """Write `value` to the word containing `address`."""
        self._words[address & _WORD_MASK] = value

    def fill_words(self, base: int, values) -> None:
        """Bulk-initialise consecutive words starting at `base`."""
        words = self._words
        address = base & _WORD_MASK
        for value in values:
            words[address] = value
            address += WORD_BYTES

    def footprint_words(self) -> int:
        """Number of distinct words ever written."""
        return len(self._words)

    def copy(self) -> "Memory":
        """Deep copy (a fresh machine's private image)."""
        clone = Memory()
        clone._words = dict(self._words)
        return clone

    def clear(self) -> None:
        self._words.clear()
