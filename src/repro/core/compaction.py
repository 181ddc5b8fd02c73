"""Skip-log compaction by trim and fold.

A raw skip log would buffer one tuple per skipped reference and let the
reconstructors rediscover, by reverse scan, that almost all of them are
redundant: in reverse order "the first
reference to a block wins" (paper §3.1), the BTB keeps one target per
entry, the GHR needs only the newest ``history_bits`` outcomes, the RAS
only the unmatched call tail, and the counter-inference table can consume
at most ``max_history`` outcomes per PHT entry.

:class:`CompactedSkipRegionLog` keeps only those survivors, so retention
and reconstruction work are O(unique entries) instead of O(gap length).
It works in three steps:

- **Append-only hooks.**  While the gap executes cold, the hooks append
  plain ints to Python lists, the cheapest append CPython has: a memory
  reference's address and its kind (load/store/ifetch); a control
  transfer's pc, next pc and one ``kind << 1 | taken`` code.  No dict,
  deque, tuple or attribute write happens per record.
- **Trim.**  :meth:`~repro.core.method.ReverseStateReconstruction.skip`
  calls :meth:`CompactedSkipRegionLog.trim` every
  ``SKIP_FOLD_INSTRUCTIONS`` skipped instructions.  At a partial
  fraction it only deletes, in place, the records that can no longer
  reach the tail (see below); deduplicating records that a later cutoff
  drops anyway would be wasted.  At fraction 1.0 nothing can be dropped,
  so there it folds, which keeps retention bounded.
- **Fold.**  :meth:`CompactedSkipRegionLog.compact` folds the pending
  lists into the retained structures with numpy, converting only the
  records at or above the cutoff.  Every query and
  :meth:`~CompactedSkipRegionLog.handoff` folds first, so pending lists
  are never queried or pickled.

The retained structures, numbered by absolute position in their stream:

- **memory**: the last touch of each (finest cache line, instruction/data
  domain) key, as ``(seq, address, kind)`` columns in ascending seq
  order, found by ``np.unique`` on the reversed keys.  Reading them
  backwards replays exactly the surviving (winning) references of a raw
  reverse scan, newest first.  Keying at the finest line granularity in
  the hierarchy keeps the win exact for every cache level; coarser
  duplicates are absorbed by the caches' own reconstructed bits, as in
  the raw scan.  Addresses are unsigned 64-bit throughout.
- **BTB**: the newest taken target of each pc.  Older claims by the same
  pc lose to the newer one in a raw reverse scan anyway.
- **GHR**: the newest ``history_bits`` conditional outcomes.
- **RAS**: the unmatched-call stack.  A return pops the newest
  outstanding call, the same pairing the reverse push/pop counter
  discovers, so the stack filtered to the tail and read top first equals
  the counter algorithm's answer for every cutoff.
- **PHT**: at fraction 1.0, per-entry packed reverse outcome windows
  ``code = (length << max_history) | bits`` with bit 0 the newest
  outcome, indexed by ``(pc ^ GHR) & mask`` with the GHR zeroed at the
  gap start and carried across folds.  A partial tail re-zeroes the GHR
  at the tail start, which no running index can anticipate, so there
  the log keeps the tail's conditional stream and indexes it once, at
  the query, with the same window merge.  Either way the
  counter-inference table resolves a window to the value the raw
  newest-to-oldest walk produces, because an exact inference is
  insensitive to outcomes older than its pin point.

**Exact tail trim.**  The log knows the fraction its consumer reads.
``tail_cutoff(n, f) = n - round(n * f)`` never decreases as `n` grows, so
a record whose position is below the cutoff of the count seen so far can
never enter the final tail.  Each trim and each fold drops such records
from the pending lists and from every retained structure.  At a 20% tail
the dedup work is done once, at the first query, over the tail alone.

**Retention accounting.**  :meth:`~CompactedSkipRegionLog.stored_records`
counts pending plus retained records.  The per-gap peak is taken just
before each trim and each fold, so ``peak_stored_records`` and the
``log.gap_stored_*`` histograms include what piles up between them.

Every query is bit-identical to the raw reverse scan; the equivalence is
enforced against the raw oracle in tests/oracle_skiplog.py by
tests/test_properties_compaction.py and argued in docs/rsr-algorithm.md
("Online log compaction").
"""

from __future__ import annotations

from array import array
from bisect import bisect_left

import numpy as np

from ..functional.blocks import Emitter
from .source import (
    BR_CALL,
    BR_COND,
    BR_JUMP,
    BR_RET,
    REF_INSTRUCTION,
    ReconstructionSource,
    tail_cutoff,
)

#: Deterministic byte model for :meth:`CompactedSkipRegionLog.
#: stored_bytes`: the logical width of each record (the fields a record
#: carries, as the fold's numpy arrays hold them), and list slot plus
#: tuple for the RAS stack.  The pending lists hold Python ints, which
#: take more than these widths; like the raw oracle's model the widths
#: are chosen, not measured, so storage telemetry is platform-stable.
#: Pending memory record: uint64 address + kind byte.
COMPACT_PENDING_MEMORY_BYTES = 9
#: Pending branch record: pc + next pc (8 bytes each) + kind/taken byte.
COMPACT_PENDING_BRANCH_BYTES = 17
#: Memory survivor: int64 seq + uint64 address + uint8 kind.
COMPACT_MEMORY_SURVIVOR_BYTES = 17
#: BTB survivor: int64 seq + int64 pc + uint64 target.
COMPACT_BTB_SURVIVOR_BYTES = 24
#: Newest conditional outcome: int64 seq + uint8 outcome.
COMPACT_OUTCOME_BYTES = 9
#: RAS stack slot: list slot + (seq, return pc) tuple.
COMPACT_RAS_SLOT_BYTES = 72
#: PHT window: int64 entry + int64 packed window.
COMPACT_PHT_WINDOW_BYTES = 16
#: Conditional-stream record: int64 seq + int64 pc + uint8 outcome.
COMPACT_CONDITIONAL_BYTES = 17

_COND_CODE = BR_COND << 1
_CALL_CODE = BR_CALL << 1
_RET_CODE = BR_RET << 1
_JUMP_CODE = BR_JUMP << 1


def _branch_code(inst) -> int:
    """``kind << 1`` of the transfer `inst`, classified by its flags."""
    if inst.is_cond_branch:
        return _COND_CODE
    if inst.is_call:
        return _CALL_CODE
    if inst.is_ret:
        return _RET_CODE
    return _JUMP_CODE


class _LogEmitter(Emitter):
    """The hooks' appends, emitted into the translated blocks, with the
    branch code ``kind << 1 | taken`` a constant."""

    kind = "log"
    params = ("a", "k", "p", "t", "c")

    @staticmethod
    def memory(pc, retired, address, ref) -> list[str]:
        return [f"a({address}); k({ref})"]

    @staticmethod
    def transfer(pc, next_pc, inst, taken, retired) -> list[str]:
        return [f"p({pc}); t({next_pc}); c({_branch_code(inst) | taken})"]


def _columns(*dtypes) -> tuple:
    return tuple(np.empty(0, dtype) for dtype in dtypes)


def _trim(columns: tuple, cutoff: int) -> tuple:
    """Seq-ordered columns (seq first) without the rows below `cutoff`."""
    start = int(np.searchsorted(columns[0], cutoff))
    return tuple(column[start:] for column in columns) if start else columns


def _append(old: tuple, new: tuple) -> tuple:
    return tuple(np.concatenate(pair) for pair in zip(old, new))


def _drain_words(column: list) -> np.ndarray:
    """`column` as uint64; empties it in place, because the hooks hold
    its bound append method."""
    values = np.frombuffer(array("Q", column), np.uint64)
    del column[:]
    return values


def _drain_bytes(column: list) -> np.ndarray:
    """`column` as uint8; empties it in place."""
    values = np.frombuffer(bytes(column), np.uint8)
    del column[:]
    return values


def _last_touch(keys: np.ndarray) -> np.ndarray:
    """Ascending positions of each key's last occurrence in `keys`."""
    _, first = np.unique(keys[::-1], return_index=True)
    last = (len(keys) - 1) - first
    last.sort()
    return last


def _ghr_before(outcomes: np.ndarray, history_bits: int,
               carry: int = 0) -> np.ndarray:
    """The GHR in effect before each conditional outcome, as int64.

    `carry` is the GHR before the first outcome; each outcome shifts in
    at bit 0 and the register keeps `history_bits` bits.
    """
    count = len(outcomes)
    ghr = np.zeros(count, np.int64)
    if not count or not history_bits:
        return ghr
    # ext[history_bits + i] is outcome i; the carry's bit t sits at
    # ext[history_bits - 1 - t], so bit t of ghr_before[i] is always
    # ext[history_bits - 1 + i - t].
    carry_bits = (carry >> np.arange(history_bits - 1, -1, -1)) & 1
    ext = np.concatenate((carry_bits, outcomes.astype(np.int64)))
    for age in range(history_bits):
        start = history_bits - 1 - age
        ghr |= ext[start:start + count] << age
    return ghr


def _merge_windows(windows: tuple, entries: np.ndarray,
                   outcomes: np.ndarray, depth: int) -> tuple:
    """Shift one fold's outcomes into the per-entry packed windows.

    `windows` is ``(entries, codes)`` sorted by entry; `entries` and
    `outcomes` are the fold's conditionals in program order.  Each touched
    entry's newest `depth` outcomes land at the low bits, newest at bit 0.
    """
    if not len(entries):
        return windows
    order = np.argsort(entries, kind="stable")
    unique, starts, counts = np.unique(entries[order], return_index=True,
                                       return_counts=True)
    # Age 0 is the entry's newest outcome of this fold.
    age = np.repeat(starts + counts - 1, counts) - np.arange(len(order))
    shifted = np.where(age < depth,
                       outcomes[order].astype(np.int64)
                       << np.minimum(age, depth), 0)
    new_bits = np.add.reduceat(shifted, starts)

    old_entries, old_codes = windows
    position = np.searchsorted(old_entries, unique)
    found = np.zeros(len(unique), bool)
    inside = position < len(old_entries)
    found[inside] = old_entries[position[inside]] == unique[inside]
    prior = np.zeros(len(unique), np.int64)
    prior[found] = old_codes[position[found]]
    window_mask = (1 << depth) - 1
    bits = (((prior & window_mask) << np.minimum(counts, depth))
            | new_bits) & window_mask
    length = np.minimum((prior >> depth) + counts, depth)
    kept = np.ones(len(old_entries), bool)
    kept[position[found]] = False
    merged_entries = np.concatenate((old_entries[kept], unique))
    merged_codes = np.concatenate((old_codes[kept], (length << depth) | bits))
    order = np.argsort(merged_entries)
    return merged_entries[order], merged_codes[order]


class CompactedSkipRegionLog(ReconstructionSource):
    """Skip-region log with append-only hooks and a numpy fold.

    Geometry parameters size the retained structures to the bound
    simulation context (see :func:`repro.core.source.make_source`):
    `line_bytes` is the finest cache-line granularity in the hierarchy,
    `pht_entries`/`history_bits` mirror the gshare PHT, and `max_history`
    is the counter-inference window depth.  `index_pht` keeps the running
    per-entry outcome windows (exact only for full-fraction tails);
    `store_conditionals` keeps the conditional stream that partial-fraction
    windows are indexed from.  `fraction` is the largest tail the
    consumer will query; each trim and fold drops what lies before it.
    """

    __slots__ = (
        "telemetry", "peak_stored_records", "peak_stored_bytes",
        "_gap_peak_records", "_gap_peak_bytes",
        "_fraction", "_line_shift", "_pht_mask", "_history_bits",
        "_ghr_mask", "_max_history", "_index_pht",
        "_store_conditionals",
        # Pending columns, appended by the hooks, and the stream position
        # of their first record.
        "_addresses", "_kinds", "_branch_pcs", "_branch_targets",
        "_branch_codes", "_mem_base", "_branch_base",
        # Retained structures, built by the fold.
        "_memory", "_btb", "_outcomes", "_ras_stack", "_windows", "_ghr",
        "_conditionals",
    )

    def __init__(self, *, line_bytes: int = 64, pht_entries: int = 0,
                 history_bits: int = 0, max_history: int = 0,
                 index_pht: bool = False, store_conditionals: bool = False,
                 fraction: float = 1.0, telemetry=None) -> None:
        if line_bytes < 2 or line_bytes & (line_bytes - 1):
            raise ValueError("line_bytes must be a power of two >= 2")
        tail_cutoff(0, fraction)
        if index_pht:
            if pht_entries <= 0 or pht_entries & (pht_entries - 1):
                raise ValueError(
                    "PHT indexing needs a positive power-of-two entry count")
            if max_history <= 0:
                raise ValueError("PHT indexing needs a positive window depth")
            if fraction < 1.0:
                raise ValueError(
                    "PHT windows are exact only for full-fraction tails")
        self._fraction = fraction
        self._line_shift = line_bytes.bit_length() - 1
        self._pht_mask = pht_entries - 1 if pht_entries else 0
        self._history_bits = history_bits
        self._ghr_mask = (1 << history_bits) - 1
        self._max_history = max_history
        self._index_pht = index_pht
        self._store_conditionals = store_conditionals
        self.telemetry = telemetry
        self._addresses: list[int] = []
        self._kinds: list[int] = []
        self._branch_pcs: list[int] = []
        self._branch_targets: list[int] = []
        self._branch_codes: list[int] = []
        self.peak_stored_records = 0
        self.peak_stored_bytes = 0
        self._reset()

    def _reset(self) -> None:
        """Empty every structure except the hooks' captured columns."""
        self._mem_base = 0
        self._branch_base = 0
        self._memory = _columns(np.int64, np.uint64, np.uint8)
        self._btb = _columns(np.int64, np.int64, np.uint64)
        self._outcomes = _columns(np.int64, np.uint8)
        self._ras_stack: list[tuple[int, int]] = []
        self._windows = _columns(np.int64, np.int64)
        self._ghr = 0
        self._conditionals = _columns(np.int64, np.int64, np.uint8)
        self._gap_peak_records = 0
        self._gap_peak_bytes = 0

    # -- hook factories (append-only hot path) ------------------------------

    def make_mem_hook(self):
        append_address = self._addresses.append
        append_kind = self._kinds.append

        def mem_hook(pc, next_pc, address, is_store):
            append_address(address)
            append_kind(is_store)  # REF_LOAD == 0, REF_STORE == 1

        return mem_hook

    def make_ifetch_hook(self):
        append_address = self._addresses.append
        append_kind = self._kinds.append

        def ifetch_hook(address):
            append_address(address)
            append_kind(REF_INSTRUCTION)

        return ifetch_hook

    def make_branch_hook(self):
        append_pc = self._branch_pcs.append
        append_target = self._branch_targets.append
        append_code = self._branch_codes.append

        def branch_hook(pc, next_pc, inst, taken):
            append_pc(pc)
            append_target(next_pc)
            append_code(_branch_code(inst) | taken)

        return branch_hook

    def make_emitter(self) -> Emitter:
        """The hooks' appends as emitted code, bound to the pending
        lists, which every trim and fold cuts in place."""
        return _LogEmitter(self._addresses.append, self._kinds.append,
                           self._branch_pcs.append,
                           self._branch_targets.append,
                           self._branch_codes.append)

    # -- the trim and the fold ---------------------------------------------

    def trim(self) -> None:
        """Drop the records below the tail cutoff; fold at fraction 1.0.

        Deletes, in place, the pending records below
        ``tail_cutoff(count, fraction)`` and cuts the retained structures
        at the same cutoff, without deduplicating what is kept: a later
        cutoff may still drop it.  At fraction 1.0 nothing can be
        dropped, so this folds to keep retention bounded.
        """
        if self._fraction >= 1.0:
            self.compact()
        elif self._kinds or self._branch_codes:
            self._note_peak()
            self._drop_unreachable()

    def compact(self) -> None:
        """Fold the pending lists into the retained structures."""
        if not (self._kinds or self._branch_codes):
            return
        self._note_peak()
        self._drop_unreachable()
        if self._kinds:
            self._fold_memory()
        if self._branch_codes:
            self._fold_branches()

    def _drop_unreachable(self) -> None:
        """Delete every record below its stream's tail cutoff, pending or
        retained, in place.  A stream with nothing pending has not moved
        its cutoff since its last trim or fold."""
        fraction = self._fraction
        if self._kinds:
            cutoff = tail_cutoff(self.memory_record_count(), fraction)
            drop = cutoff - self._mem_base
            if drop > 0:
                del self._addresses[:drop]
                del self._kinds[:drop]
                self._mem_base = cutoff
            self._memory = _trim(self._memory, cutoff)
        if self._branch_codes:
            cutoff = tail_cutoff(self.branch_record_count(), fraction)
            drop = cutoff - self._branch_base
            if drop > 0:
                del self._branch_pcs[:drop]
                del self._branch_targets[:drop]
                del self._branch_codes[:drop]
                self._branch_base = cutoff
            self._btb = _trim(self._btb, cutoff)
            self._outcomes = _trim(self._outcomes, cutoff)
            self._conditionals = _trim(self._conditionals, cutoff)
            # Calls below the cutoff sit at the bottom of the stack and
            # can never be read.
            stack = self._ras_stack
            del stack[:bisect_left(stack, (cutoff,))]

    def _note_peak(self) -> None:
        records = self.stored_records()
        stored_bytes = self.stored_bytes()
        if records > self._gap_peak_records:
            self._gap_peak_records = records
        if stored_bytes > self._gap_peak_bytes:
            self._gap_peak_bytes = stored_bytes
        if records > self.peak_stored_records:
            self.peak_stored_records = records
        if stored_bytes > self.peak_stored_bytes:
            self.peak_stored_bytes = stored_bytes

    def _fold_memory(self) -> None:
        base = self._mem_base
        addresses = _drain_words(self._addresses)
        kinds = _drain_bytes(self._kinds)
        self._mem_base = base + len(kinds)
        seq = np.arange(base, self._mem_base, dtype=np.int64)
        seq, addresses, kinds = _append(self._memory,
                                        (seq, addresses, kinds))
        # Data keys are even, instruction keys odd: a line fetched and
        # loaded warms both L1I and L1D; the shared L2 dedups the pair
        # through its reconstructed bits.
        keys = ((addresses >> self._line_shift) << 1) | (
            kinds == REF_INSTRUCTION)
        keep = _last_touch(keys)
        self._memory = (seq[keep], addresses[keep], kinds[keep])

    def _fold_branches(self) -> None:
        base = self._branch_base
        pcs = _drain_words(self._branch_pcs).view(np.int64)
        targets = _drain_words(self._branch_targets)
        codes = _drain_bytes(self._branch_codes)
        self._branch_base = base + len(codes)
        seq = np.arange(base, self._branch_base, dtype=np.int64)
        kinds = codes >> 1
        taken = codes & 1

        # BTB: taken transfers other than returns claim their pc.
        claim = (taken == 1) & (kinds != BR_RET)
        btb = _append(self._btb, (seq[claim], pcs[claim], targets[claim]))
        keep = _last_touch(btb[1])
        self._btb = tuple(column[keep] for column in btb)

        cond = kinds == BR_COND
        cond_seq = seq[cond]
        cond_pcs = pcs[cond]
        outcomes = taken[cond]
        history = self._history_bits
        seqs, bits = _append(self._outcomes, (cond_seq, outcomes))
        newest = max(0, len(seqs) - history)
        self._outcomes = (seqs[newest:], bits[newest:])
        if self._index_pht and len(outcomes):
            ghr = _ghr_before(outcomes, history, self._ghr)
            self._ghr = ((int(ghr[-1]) << 1) | int(outcomes[-1])) \
                & self._ghr_mask
            self._windows = _merge_windows(
                self._windows, (cond_pcs ^ ghr) & self._pht_mask, outcomes,
                self._max_history)
        if self._store_conditionals:
            self._conditionals = _append(self._conditionals,
                                         (cond_seq, cond_pcs, outcomes))

        # RAS: a return consumes the newest outstanding call.
        stack = self._ras_stack
        transfers = np.flatnonzero((kinds == BR_CALL) | (kinds == BR_RET))
        for position, kind, pc in zip(seq[transfers].tolist(),
                                      kinds[transfers].tolist(),
                                      pcs[transfers].tolist()):
            if kind == BR_CALL:
                stack.append((position, pc + 1))
            elif stack:
                stack.pop()

    # -- record accounting ---------------------------------------------------

    def memory_record_count(self) -> int:
        return self._mem_base + len(self._kinds)

    def branch_record_count(self) -> int:
        return self._branch_base + len(self._branch_codes)

    def stored_records(self) -> int:
        """Pending plus retained record slots."""
        return (len(self._kinds) + len(self._branch_codes)
                + len(self._memory[0]) + len(self._btb[0])
                + len(self._outcomes[0]) + len(self._ras_stack)
                + len(self._windows[0]) + len(self._conditionals[0]))

    def stored_bytes(self) -> int:
        return (len(self._kinds) * COMPACT_PENDING_MEMORY_BYTES
                + len(self._branch_codes) * COMPACT_PENDING_BRANCH_BYTES
                + len(self._memory[0]) * COMPACT_MEMORY_SURVIVOR_BYTES
                + len(self._btb[0]) * COMPACT_BTB_SURVIVOR_BYTES
                + len(self._outcomes[0]) * COMPACT_OUTCOME_BYTES
                + len(self._ras_stack) * COMPACT_RAS_SLOT_BYTES
                + len(self._windows[0]) * COMPACT_PHT_WINDOW_BYTES
                + len(self._conditionals[0]) * COMPACT_CONDITIONAL_BYTES)

    # -- consumer queries (each bit-identical to the raw reverse scan) ------

    def _cutoff(self, count: int, fraction: float) -> int:
        cutoff = tail_cutoff(count, fraction)
        if fraction > self._fraction:
            raise ValueError(
                f"this compacted log keeps the newest {self._fraction!r} of "
                f"its records; a {fraction!r} tail was requested")
        return cutoff

    def memory_reverse_arrays(self, fraction: float):
        """The surviving-reference tail as (uint64 addresses, uint8 kinds),
        newest first."""
        self.compact()
        seq, addresses, kinds = _trim(
            self._memory, self._cutoff(self._mem_base, fraction))
        return addresses[::-1], kinds[::-1]

    def recent_conditional_outcomes(self, fraction: float,
                                    limit: int) -> list:
        if limit > self._history_bits:
            raise ValueError(
                f"this compacted log keeps the newest {self._history_bits} "
                f"conditional outcomes; {limit} were requested")
        self.compact()
        _seq, bits = _trim(self._outcomes,
                           self._cutoff(self._branch_base, fraction))
        return bits[::-1][:limit].tolist()

    def btb_claims_arrays(self, fraction: float):
        """The surviving BTB-claim tail as (pcs, targets), newest first."""
        self.compact()
        _seq, pcs, targets = _trim(
            self._btb, self._cutoff(self._branch_base, fraction))
        return pcs[::-1], targets[::-1]

    def ras_tail_contents(self, fraction: float, capacity: int) -> list:
        self.compact()
        cutoff = self._cutoff(self._branch_base, fraction)
        contents: list[int] = []
        for seq, return_pc in reversed(self._ras_stack):
            if seq < cutoff or len(contents) >= capacity:
                break
            contents.append(return_pc)
        return contents

    def pht_entry_windows(self, fraction: float, mask: int,
                          history_bits: int, max_history: int):
        self.compact()
        if (self._index_pht and fraction >= 1.0
                and mask == self._pht_mask
                and history_bits == self._history_bits
                and max_history == self._max_history):
            windows = self._windows
            read = int((windows[1] >> max_history).sum())
        else:
            pcs, outcomes = self._conditional_tail(fraction)
            ghr = _ghr_before(outcomes, history_bits)
            windows = _merge_windows(_columns(np.int64, np.int64),
                                     (pcs ^ ghr) & mask, outcomes,
                                     max_history)
            read = len(outcomes)
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.count("reconstruct.log_walk_steps", read)
        return windows

    def _conditional_tail(self, fraction: float):
        """The tail's conditionals, program order, as (int64 pcs, uint8
        outcomes)."""
        if not self._store_conditionals:
            raise RuntimeError(
                "this compacted log keeps no conditional stream; construct"
                " it with store_conditionals=True to serve partial-fraction"
                " PHT windows")
        self.compact()
        _seq, pcs, outcomes = _trim(
            self._conditionals, self._cutoff(self._branch_base, fraction))
        return pcs, outcomes

    # -- lifecycle -----------------------------------------------------------

    def clear(self) -> None:
        # One branch record can leave several survivors (BTB claim,
        # outcome, window), so the folded state is a peak candidate too.
        self.compact()
        self._note_peak()
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.count("log.memory_records", self._mem_base)
            telemetry.count("log.branch_records", self._branch_base)
            telemetry.count("log.stored_records", self.stored_records())
            telemetry.count("log.stored_bytes", self.stored_bytes())
            telemetry.observe("log.gap_stored_records",
                              self._gap_peak_records)
            telemetry.observe("log.gap_stored_bytes", self._gap_peak_bytes)
        # The hooks captured the pending lists' append methods, so those
        # were emptied in place by the fold; the rest is rebuilt.
        self._reset()

    def handoff(self) -> "CompactedSkipRegionLog":
        self.compact()
        return super().handoff()
