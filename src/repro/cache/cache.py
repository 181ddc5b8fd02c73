"""Set-associative LRU cache with reverse-reconstruction support.

The cache keeps, per set, an explicit recency ordering (`order[set]` lists
way indices from MRU to LRU) plus per-block *reconstructed* bits, the
hardware hook the paper's §3.1 algorithm relies on:

    "Each cache block contains a bit that indicates if it has been
     reconstructed.  These bits are cleared before the logged data are
     used to warm the cache."

State layout
------------

Tags live in per-set lists (``_tag_rows``, −1 = invalid): CPython scans
a small list of cached ints measurably faster than a flat typed array,
which re-boxes every element it reads.  The per-block bits live in flat
stores indexed ``set * associativity + way`` — ``dirty_bits`` and
``recon_bits`` (``bytearray``), and ``recon_count`` (``array('H')``, one
count per set) — so ``begin_reconstruction`` and ``load_state`` are
C-speed slice fills instead of per-way Python loops.

Two access families are exposed:

- :meth:`Cache.access` — a normal (forward-time) access that updates tags,
  recency, and dirty bits according to the write policy.  Used by detailed
  simulation and by SMARTS-style functional warming.
- :meth:`Cache.begin_reconstruction` / :meth:`Cache.reconstruct_reference`
  / :meth:`Cache.reconstruct_line` — the reverse-order primitives: the
  *first* reference seen for a block (i.e. the most recent in program
  order) wins, reconstructed blocks are ranked MRU-first in discovery
  order, and victims are chosen among *stale* (not-yet-reconstructed)
  blocks only.  :meth:`Cache.reconstruct_line` takes a pre-split
  (set, tag) pair so bulk callers that split addresses with numpy skip
  the per-reference address arithmetic.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .config import CacheConfig, WritePolicy


@dataclass
class CacheStats:
    """Event counters; `updates` counts every state-changing operation and
    is the deterministic cost metric used by the warm-up comparisons."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    reconstruction_applied: int = 0
    reconstruction_skipped: int = 0
    updates: int = 0

    def add_hits(self, count: int) -> None:
        """Count `count` read hits on the MRU way of their set, which
        translated blocks test in line instead of calling
        :meth:`Cache.access`: such a hit changes nothing else."""
        self.accesses += count
        self.hits += count
        self.updates += count


#: :meth:`Cache.access` returns HIT for a hit and MISS for a miss that
#: writes no dirty line back; any other value (>= 0) is the byte address
#: of the dirty line the miss wrote back.
HIT = -1
MISS = -2


def mru_names(cache: "Cache") -> tuple:
    """``R, O, L, N, T`` of `cache`, the names translated blocks test an
    MRU hit with: its per-set tag rows and recency orders (bound as they
    are now: ``load_state`` rebinds them), line bytes, set
    count, and line bytes times set count."""
    line_bytes, sets = cache.config.line_bytes, cache.num_sets
    return cache._tag_rows, cache.order, line_bytes, sets, line_bytes * sets


class Cache:
    """One level of set-associative cache with true-LRU replacement."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self._line_shift = config.line_bytes.bit_length() - 1
        self._index_mask = self.num_sets - 1
        self._sets_power_of_two = (self.num_sets & (self.num_sets - 1)) == 0
        self._set_bits = self.num_sets.bit_length() - 1
        self._wbwa = config.write_policy is WritePolicy.WBWA
        self._wtna = config.write_policy is WritePolicy.WTNA
        assoc = self.associativity
        sets = self.num_sets
        blocks = sets * assoc
        #: Flat per-block bits, indexed ``set * associativity + way``.
        self.dirty_bits = bytearray(blocks)
        self.recon_bits = bytearray(blocks)
        #: Number of ways reconstructed so far per set (reverse warm-up).
        self.recon_count: array = array("H", bytes(2 * sets))
        #: Per-set tag lists (fast forward scan).
        self._tag_rows: list[list[int]] = [[-1] * assoc for _ in range(sets)]
        #: order[s] lists way indices from most- to least-recently used.
        self.order: list[list[int]] = [list(range(assoc)) for _ in range(sets)]
        self.stats = CacheStats()
        # Invariant templates for C-speed bulk clears.
        self._zero_blocks = bytes(blocks)
        self._zero_counts = array("H", bytes(2 * sets))

    # -- address helpers --------------------------------------------------

    def split_address(self, address: int) -> tuple[int, int]:
        """Return (set index, tag) for `address`."""
        line = address >> self._line_shift
        if self._sets_power_of_two:
            return line & self._index_mask, line >> self._set_bits
        return line % self.num_sets, line // self.num_sets

    def _address_of(self, set_index: int, tag: int) -> int:
        if self._sets_power_of_two:
            line = (tag << self._set_bits) | set_index
        else:
            line = tag * self.num_sets + set_index
        return line << self._line_shift

    # -- forward-time access ------------------------------------------------

    def access(self, address: int, is_write: bool = False) -> int:
        """Perform one forward access, honouring the write policy;
        return :data:`HIT`, :data:`MISS` or the written-back address."""
        stats = self.stats
        stats.accesses += 1
        stats.updates += 1
        line = address >> self._line_shift
        if self._sets_power_of_two:
            set_index = line & self._index_mask
            tag = line >> self._set_bits
        else:
            set_index = line % self.num_sets
            tag = line // self.num_sets
        row = self._tag_rows[set_index]
        order = self.order[set_index]
        if tag in row:
            way = row.index(tag)
            stats.hits += 1
            if order[0] != way:
                order.remove(way)
                order.insert(0, way)
            if is_write and self._wbwa:
                self.dirty_bits[set_index * self.associativity + way] = 1
            return HIT

        stats.misses += 1
        if is_write and self._wtna:
            # Write miss with no-write-allocate: the line is not brought in.
            return MISS

        victim = order.pop()
        order.insert(0, victim)
        index = set_index * self.associativity + victim
        evicted_tag = row[victim]
        row[victim] = tag
        dirty_bits = self.dirty_bits
        dirty = dirty_bits[index]
        dirty_bits[index] = 1 if is_write and self._wbwa else 0
        if evicted_tag < 0:
            return MISS
        stats.evictions += 1
        if not dirty:
            return MISS
        stats.writebacks += 1
        return self._address_of(set_index, evicted_tag)

    # -- reverse reconstruction primitives ---------------------------------

    def begin_reconstruction(self) -> None:
        """Clear all reconstructed bits (start of a reverse warm-up pass)."""
        self.recon_bits[:] = self._zero_blocks
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
        set_index, tag = self.split_address(address)
        return self.reconstruct_line(set_index, tag, is_write)

    def reconstruct_line(
        self, set_index: int, tag: int, is_write: bool = False
    ) -> bool:
        """:meth:`reconstruct_reference` for a pre-split (set, tag) pair.

        Bulk callers (the vectorized reverse reconstructor) split whole
        reference columns with numpy and feed winners through this entry
        point, skipping the per-reference address arithmetic.
        """
        stats = self.stats
        count = self.recon_count[set_index]
        if count >= self.associativity:
            stats.reconstruction_skipped += 1
            return False

        row = self._tag_rows[set_index]
        base = set_index * self.associativity
        recon_bits = self.recon_bits
        order = self.order[set_index]

        for way, stored in enumerate(row):
            if stored == tag:
                if recon_bits[base + way]:
                    stats.reconstruction_skipped += 1
                    return False
                # Present but stale: promote to the next reconstruction rank.
                recon_bits[base + way] = 1
                order.remove(way)
                order.insert(count, way)
                self.recon_count[set_index] = count + 1
                stats.reconstruction_applied += 1
                stats.updates += 1
                return True

        # Absent: insert into the least-recently-used stale block.  Because
        # reconstructed blocks occupy order[0:count], order[-1] is always a
        # stale way here.
        victim = order[-1]
        row[victim] = tag
        self.dirty_bits[base + victim] = 1 if is_write and self._wbwa else 0
        recon_bits[base + victim] = 1
        order.pop()
        order.insert(count, victim)
        self.recon_count[set_index] = count + 1
        stats.reconstruction_applied += 1
        stats.updates += 1
        return True

    def reconstruct_winners(self, set_indices, tags, writes) -> int:
        """Bulk-insert pre-filtered winner references, newest first.

        The three columns run in parallel and must already be filtered to
        the reverse-scan *winners* — the first occurrence of each line,
        limited to the first `associativity` distinct lines per set (the
        winner set depends only on the reference stream, never on cache
        contents, so callers can compute it without consulting state).
        Each winner still goes through :meth:`reconstruct_line`'s rules
        in one loop — a full set or an already reconstructed block skips
        it — with the same state transitions and statistics, so a
        mis-filtered input shows as a short count.

        Returns the number of references applied (== the column length
        for a correctly filtered input).
        """
        associativity = self.associativity
        recon_count = self.recon_count
        recon_bits = self.recon_bits
        dirty_bits = self.dirty_bits
        tag_rows = self._tag_rows
        orders = self.order
        wbwa = self._wbwa
        applied = 0
        for set_index, tag, is_write in zip(set_indices, tags, writes):
            count = recon_count[set_index]
            if count >= associativity:
                continue
            row = tag_rows[set_index]
            base = set_index * associativity
            order = orders[set_index]
            if tag in row:
                way = row.index(tag)
                if recon_bits[base + way]:
                    continue
                # Present but stale: promote to the next rank.
                order.remove(way)
            else:
                # The least-recently-used way is stale: reconstructed
                # blocks occupy order[0:count].
                way = order.pop()
                row[way] = tag
                dirty_bits[base + way] = 1 if is_write and wbwa else 0
            recon_bits[base + way] = 1
            order.insert(count, way)
            recon_count[set_index] = count + 1
            applied += 1
        stats = self.stats
        stats.reconstruction_applied += applied
        stats.updates += applied
        stats.reconstruction_skipped += len(set_indices) - applied
        return applied

    # -- state inspection -------------------------------------------------

    def contents(self) -> set[int]:
        """Line addresses of every valid block (for state-comparison tests)."""
        lines = set()
        for set_index, row in enumerate(self._tag_rows):
            for tag in row:
                if tag >= 0:
                    lines.add(self._address_of(set_index, tag))
        return lines

    def state_fingerprint(self) -> tuple:
        """Hashable summary of the architecturally visible state.

        Per set, the stored tags in most- to least-recently-used order.
        Physical way placement is excluded: two caches holding the same
        lines with the same recency behave identically regardless of
        which way each line occupies.
        """
        rows = self._tag_rows
        return tuple(
            tuple(
                rows[set_index][way] if rows[set_index][way] >= 0 else None
                for way in self.order[set_index]
            )
            for set_index in range(self.num_sets)
        )

    # -- state snapshot (live-points support) --------------------------------

    def export_state(self) -> dict:
        """Deep-copy the architecturally visible state (tags, dirty bits,
        recency) into a plain dict, for checkpoint libraries."""
        assoc = self.associativity
        dirty_bits = self.dirty_bits
        return {
            "tags": [
                [tag if tag >= 0 else None for tag in row]
                for row in self._tag_rows
            ],
            "dirty": [
                [b == 1 for b in dirty_bits[s * assoc:(s + 1) * assoc]]
                for s in range(self.num_sets)
            ],
            "order": [list(row) for row in self.order],
        }

    def load_state(self, state: dict) -> None:
        """Restore state captured by :meth:`export_state`.

        The snapshot must come from a cache with identical geometry.
        """
        if len(state["tags"]) != self.num_sets or (
            self.num_sets and len(state["tags"][0]) != self.associativity
        ):
            raise ValueError("snapshot geometry does not match this cache")
        assoc = self.associativity
        dirty_bits = self.dirty_bits
        for set_index, (tag_row, dirty_row) in enumerate(
            zip(state["tags"], state["dirty"])
        ):
            base = set_index * assoc
            stored = self._tag_rows[set_index]
            for way in range(assoc):
                tag = tag_row[way]
                stored[way] = -1 if tag is None else tag
                dirty_bits[base + way] = 1 if dirty_row[way] else 0
        self.order = [list(row) for row in state["order"]]
        self.recon_bits[:] = self._zero_blocks
        self.recon_count[:] = self._zero_counts

    def __repr__(self) -> str:
        config = self.config
        return (
            f"Cache({config.name}: {config.size_bytes}B, "
            f"{config.associativity}-way, {config.line_bytes}B lines, "
            f"{config.write_policy.value})"
        )
