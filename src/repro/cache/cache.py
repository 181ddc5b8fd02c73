"""Set-associative LRU cache with reverse-reconstruction support.

Each set is one recency-ordered row of line numbers, the hardware hook
the paper's §3.1 algorithm relies on being the row's reconstructed
prefix:

    "Each cache block contains a bit that indicates if it has been
     reconstructed.  These bits are cleared before the logged data are
     used to warm the cache."

State layout
------------

``rows[s]`` lists the line numbers (``address >> line_shift``) resident
in set ``s = line % num_sets``, most recently used first, padded with
−1 (invalid) at the LRU end: a hit is ``line in row`` plus a move to the
front, and a fill pops the LRU entry and inserts the line at the front.
CPython scans a small list of cached ints faster than any typed array,
which re-boxes every element it reads, and one row per set leaves
nothing to keep in step: no way index, no separate recency order.

A reverse pass ranks the lines it reconstructs at the front of the row,
so a set's reconstructed blocks are its first ``recon_count[s]`` entries
(``array('H')``, one count per set, cleared by ``begin_reconstruction``
as one C-speed slice fill).  Dirty state is one set of dirty line
numbers per cache (always empty for a write-through cache), which the
eviction of a line leaves.

Two access families are exposed:

- :meth:`Cache.access` — a normal (forward-time) access that updates
  residency, recency, and dirty lines according to the write policy.
  Used by detailed simulation and by SMARTS-style functional warming.
- :meth:`Cache.begin_reconstruction` / :meth:`Cache.reconstruct_reference`
  / :meth:`Cache.reconstruct_winners` — the reverse-order primitives: the
  *first* reference seen for a block (i.e. the most recent in program
  order) wins, reconstructed blocks are ranked MRU-first in discovery
  order, and victims are chosen among *stale* (not-yet-reconstructed)
  blocks only.  :meth:`Cache.reconstruct_winners` takes pre-split
  (set, line) columns, so bulk callers that split addresses with numpy
  skip the per-reference address arithmetic.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .config import CacheConfig, WritePolicy


@dataclass
class CacheStats:
    """Event counters; `updates` counts every state-changing operation and
    is the deterministic cost metric used by the warm-up comparisons."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    reconstruction_applied: int = 0
    reconstruction_skipped: int = 0

    @property
    def accesses(self) -> int:
        """Forward accesses: each one hits or misses."""
        return self.hits + self.misses

    @property
    def updates(self) -> int:
        """Every forward access and every applied reconstruction."""
        return self.accesses + self.reconstruction_applied


#: :meth:`Cache.access` returns HIT for a hit and MISS for a miss that
#: writes no dirty line back; any other value (>= 0) is the byte address
#: of the dirty line the miss wrote back.
HIT = -1
MISS = -2


def mru_names(cache: "Cache") -> tuple:
    """``R, L, N`` of `cache`, the names translated blocks test an MRU
    hit on address ``a`` with (``R[a // L % N][0] == a // L``): its
    rows, line bytes and set count."""
    return cache.rows, cache.config.line_bytes, cache.num_sets


class Cache:
    """One level of set-associative cache with true-LRU replacement."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self._line_shift = config.line_bytes.bit_length() - 1
        self._wbwa = config.write_policy is WritePolicy.WBWA
        self._wtna = config.write_policy is WritePolicy.WTNA
        sets = self.num_sets
        #: Per set, its line numbers from most- to least-recently used,
        #: −1 padding the LRU end.
        self.rows: list[list[int]] = [[-1] * self.associativity
                                      for _ in range(sets)]
        #: Line numbers of the dirty resident lines.
        self.dirty: set[int] = set()
        #: Per set, how many of its leading lines a reverse pass has
        #: reconstructed.
        self.recon_count: array = array("H", bytes(2 * sets))
        self.stats = CacheStats()
        # Invariant template for a C-speed bulk clear.
        self._zero_counts = array("H", bytes(2 * sets))

    # -- forward-time access ------------------------------------------------

    def access(self, address: int, is_write: bool = False) -> int:
        """Perform one forward access, honouring the write policy;
        return :data:`HIT`, :data:`MISS` or the written-back address."""
        stats = self.stats
        line = address >> self._line_shift
        row = self.rows[line % self.num_sets]
        if line in row:
            stats.hits += 1
            if row[0] != line:
                row.remove(line)
                row.insert(0, line)
            if is_write and self._wbwa:
                self.dirty.add(line)
            return HIT

        stats.misses += 1
        if is_write and self._wtna:
            # Write miss with no-write-allocate: the line is not brought in.
            return MISS

        victim = row.pop()
        row.insert(0, line)
        dirty = self.dirty
        if is_write and self._wbwa:
            dirty.add(line)
        if victim < 0:
            return MISS
        stats.evictions += 1
        if victim not in dirty:
            return MISS
        dirty.remove(victim)
        stats.writebacks += 1
        return victim << self._line_shift

    # -- reverse reconstruction primitives ---------------------------------

    def begin_reconstruction(self) -> None:
        """Mark every block stale (start of a reverse warm-up pass)."""
        self.recon_count[:] = self._zero_counts

    def reconstruct_reference(self, address: int, is_write: bool = False) -> bool:
        """Apply one logged reference during a reverse-order scan.

        Returns True if the reference changed state, False if it was
        skipped as redundant (its set already fully reconstructed, or its
        block already reconstructed by a more recent reference).

        Implements the paper's §3.1 rules:

        - a set that is fully reconstructed ignores all older references;
        - a hit on an already-reconstructed block is redundant;
        - a hit on a stale block promotes it to the next reconstruction
          rank (first reconstructed block of a set becomes MRU, later ones
          take increasing LRU values);
        - a miss replaces the least-recently-used *stale* block;
        - WTNA caches allocate even on logged writes, "to avoid history
          looking for a previous read".
        """
        line = address >> self._line_shift
        set_index = line % self.num_sets
        stats = self.stats
        count = self.recon_count[set_index]
        row = self.rows[set_index]
        if count >= self.associativity or line in row[:count]:
            stats.reconstruction_skipped += 1
            return False
        if line in row:
            # Present but stale: promote to the next reconstruction rank.
            row.remove(line)
        else:
            # Absent: replace the least-recently-used block, which is
            # stale because reconstructed blocks lead the row.
            self.dirty.discard(row.pop())
            if is_write and self._wbwa:
                self.dirty.add(line)
        row.insert(count, line)
        self.recon_count[set_index] = count + 1
        stats.reconstruction_applied += 1
        return True

    def reconstruct_winners(self, set_indices, lines, writes) -> int:
        """Bulk-insert pre-filtered winner references, newest first.

        The three columns run in parallel and must already be filtered to
        the reverse-scan *winners* — the first occurrence of each line,
        limited to the first `associativity` distinct lines per set (the
        winner set depends only on the reference stream, never on cache
        contents, so callers can compute it without consulting state).
        Each winner still goes through :meth:`reconstruct_reference`'s
        rules in one loop — a full set or an already reconstructed block
        skips it — with the same state transitions and statistics, so a
        mis-filtered input shows as a short count.

        Returns the number of references applied (== the column length
        for a correctly filtered input).
        """
        associativity = self.associativity
        recon_count = self.recon_count
        rows = self.rows
        dirty = self.dirty
        wbwa = self._wbwa
        applied = 0
        for set_index, line, is_write in zip(set_indices, lines, writes):
            count = recon_count[set_index]
            if count >= associativity:
                continue
            row = rows[set_index]
            if line in row:
                if row.index(line) < count:
                    continue
                # Present but stale: promote to the next rank.
                row.remove(line)
            else:
                # The least-recently-used block is stale: reconstructed
                # blocks lead the row.
                dirty.discard(row.pop())
                if is_write and wbwa:
                    dirty.add(line)
            row.insert(count, line)
            recon_count[set_index] = count + 1
            applied += 1
        stats = self.stats
        stats.reconstruction_applied += applied
        stats.reconstruction_skipped += len(set_indices) - applied
        return applied

    # -- state inspection -------------------------------------------------

    def contents(self) -> set[int]:
        """Line addresses of every valid block (for state-comparison tests)."""
        shift = self._line_shift
        return {line << shift for row in self.rows for line in row
                if line >= 0}

    def state_fingerprint(self) -> tuple:
        """Hashable summary of the architecturally visible state: per
        set, its line numbers from most- to least-recently used, None
        for an invalid block."""
        return tuple(tuple(line if line >= 0 else None for line in row)
                     for row in self.rows)

    # -- state snapshot (live-points support) --------------------------------

    def export_state(self) -> dict:
        """Copy the architecturally visible state (each set's lines, MRU
        first, and the dirty lines, ascending) into a plain dict, for
        checkpoint libraries."""
        return {"rows": [list(row) for row in self.rows],
                "dirty": sorted(self.dirty)}

    def load_state(self, state: dict) -> None:
        """Restore state captured by :meth:`export_state`, in place: the
        rows and the dirty set keep their identity.

        The snapshot must come from a cache with identical geometry.
        """
        saved = state["rows"]
        if len(saved) != self.num_sets or (
            self.num_sets and len(saved[0]) != self.associativity
        ):
            raise ValueError("snapshot geometry does not match this cache")
        for row, lines in zip(self.rows, saved):
            row[:] = lines
        self.dirty.clear()
        self.dirty.update(state["dirty"])
        self.recon_count[:] = self._zero_counts

    def __repr__(self) -> str:
        config = self.config
        return (
            f"Cache({config.name}: {config.size_bytes}B, "
            f"{config.associativity}-way, {config.line_bytes}B lines, "
            f"{config.write_policy.value})"
        )
