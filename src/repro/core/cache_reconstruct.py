"""Reverse cache reconstruction (paper §3.1, Figure 2).

"Immediately before the next cluster, the reference stream is scanned in
reverse order and the cache state is updated.  Temporal locality is
exploited by applying updates to the cache for only those references that
would have affected the final state."

The per-set mechanics (the reconstructed prefix of each set's row, LRU
ranking of reconstructed blocks, stale-LRU victim selection) live in
:meth:`repro.cache.Cache.reconstruct_reference`; this module drives the
reverse scan across the hierarchy: data references update L1D and L2,
instruction references update L1I and L2, and — per the paper — "for
caches with WTNA policies, the block is allocated even if the access is a
write", so every logged reference allocates during reconstruction.

Vectorized scan
---------------

The source materializes its tail as arrays and the reverse scan runs as
a numpy pre-filter instead of a per-reference Python loop (the test
suite keeps that loop as its oracle, tests/oracle_engine.py).  This
rests on a property of the §3.1 rules: whether a reverse scan *applies*
a reference at a cache level depends only on the reference stream,
never on the cache's current contents.  A
reference wins exactly when it is (a) the first (newest) occurrence of
its line and (b) among the first `associativity` distinct lines of its
set — a set keeps applying lines until it holds `associativity`
reconstructed blocks, and a repeated line always finds its block already
reconstructed (on a hit the stale resident is promoted; on a miss the
line is inserted; either way the block carries the reconstructed bit
afterwards).  The winner set is therefore computable up front with
``np.unique`` plus a per-set rank cutoff, and the winners are applied,
newest first, through the same scalar per-set primitive — identical
state transitions, identical statistics, a fraction of the interpreted
work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cache import MemoryHierarchy
from .source import REF_INSTRUCTION, REF_STORE, ReconstructionSource


def _reverse_scan_winners(set_indices: np.ndarray, lines: np.ndarray,
                          associativity: int) -> np.ndarray:
    """Positions (ascending == newest-first) a reverse scan would apply.

    `lines` and `set_indices` are parallel newest-first columns; a
    position survives when it is the first occurrence of its line and its
    line is among the first `associativity` distinct lines of its set.
    """
    _, first = np.unique(lines, return_index=True)
    first.sort()
    # Stable-sort the first occurrences by set: inside each set group the
    # newest-first scan order is preserved, so the element's rank within
    # its group is the number of distinct lines the set saw before it.
    order = np.argsort(set_indices[first], kind="stable")
    grouped = set_indices[first][order]
    changed = np.empty(len(grouped), dtype=bool)
    if len(grouped):
        changed[0] = True
        np.not_equal(grouped[1:], grouped[:-1], out=changed[1:])
    starts = np.flatnonzero(changed)
    group_of = np.cumsum(changed) - 1
    rank = np.arange(len(grouped)) - starts[group_of]
    winners = first[order[rank < associativity]]
    winners.sort()
    return winners


def _apply_level(cache, addresses: np.ndarray,
                 stores: np.ndarray) -> np.ndarray:
    """Reconstruct one cache level from its newest-first reference columns.

    Splits the addresses into lines and sets with array arithmetic,
    pre-filters to the reverse-scan winners, bulk-inserts them through
    the cache's scalar per-set primitive (identical state transitions
    and `applied`/`updates` accounting), and charges the skipped
    remainder arithmetically — exactly the count the scalar scan would
    have accumulated one reference at a time.  Returns the winner
    positions.
    """
    lines = addresses >> (cache.config.line_bytes.bit_length() - 1)
    set_indices = lines % cache.num_sets
    winners = _reverse_scan_winners(set_indices, lines, cache.associativity)
    applied = cache.reconstruct_winners(
        set_indices[winners].tolist(), lines[winners].tolist(),
        stores[winners].tolist(),
    )
    cache.stats.reconstruction_skipped += len(addresses) - len(winners)
    assert applied == len(winners), \
        "reverse-scan winner filter disagreed with the per-set primitive"
    return winners


@dataclass
class CacheReconstructionStats:
    """Outcome of one reverse cache-reconstruction pass."""

    scanned: int = 0
    applied: int = 0
    skipped: int = 0

    @property
    def skip_fraction(self) -> float:
        return self.skipped / self.scanned if self.scanned else 0.0


class ReverseCacheReconstructor:
    """Reverse-scans a skip-region memory log into a hierarchy."""

    def __init__(self, hierarchy: MemoryHierarchy, telemetry=None) -> None:
        self.hierarchy = hierarchy
        #: Optional telemetry session; each pass reports how many logged
        #: references it scanned, applied (blocks actually reconstructed),
        #: and skipped by the temporal-locality filter.
        self.telemetry = telemetry

    def reconstruct(self, source: ReconstructionSource,
                    fraction: float = 1.0) -> CacheReconstructionStats:
        """Rebuild L1I/L1D/L2 state from the most recent `fraction` of the
        logged reference stream.

        `source` supplies the newest-first references; the compacted log
        yields only each block's winning reference, so `scanned` counts
        unique blocks rather than raw log length (the cache's
        reconstructed bits make the extra raw references no-ops either
        way, which is why the raw test oracle rebuilds identical
        state).

        Returns statistics on how many scanned references actually changed
        state — the savings relative to SMARTS, which applies them all.
        """
        hierarchy = self.hierarchy
        hierarchy.l1i.begin_reconstruction()
        hierarchy.l1d.begin_reconstruction()
        hierarchy.l2.begin_reconstruction()

        scanned, applied = self._apply_tail(source, fraction)
        stats = CacheReconstructionStats(scanned, applied, scanned - applied)
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.count("reconstruct.refs_scanned", stats.scanned)
            telemetry.count("reconstruct.blocks_applied", stats.applied)
            telemetry.count("reconstruct.refs_skipped", stats.skipped)
        return stats

    def _apply_tail(self, source: ReconstructionSource,
                    fraction: float) -> tuple[int, int]:
        """Reverse-scan the tail into the hierarchy; return how many
        references were scanned and how many changed some level."""
        hierarchy = self.hierarchy
        addresses, kinds = source.memory_reverse_arrays(fraction)
        scanned = len(addresses)
        if not scanned:
            return 0, 0
        is_inst = kinds == REF_INSTRUCTION
        is_store = kinds == REF_STORE
        touched = np.zeros(scanned, dtype=bool)
        inst_idx = np.flatnonzero(is_inst)
        data_idx = np.flatnonzero(~is_inst)
        for cache, idx in ((hierarchy.l1i, inst_idx),
                           (hierarchy.l1d, data_idx), (hierarchy.l2, None)):
            if idx is None:
                level_addresses = addresses
                level_stores = is_store
            elif len(idx):
                level_addresses = addresses[idx]
                level_stores = is_store[idx]
            else:
                continue
            winners = _apply_level(cache, level_addresses, level_stores)
            touched[winners if idx is None else idx[winners]] = True
        return scanned, int(touched.sum())
