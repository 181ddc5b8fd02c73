"""The raw skip-region log: the reference the compacted log is tested against.

"While skipping between clusters, the data necessary for reconstruction
are recorded."  During cold simulation the Reverse State Reconstruction
method buffers two streams:

- **memory references** — one record per data load/store and per fetched
  instruction block, carrying the address and two booleans (entry type:
  instruction/data; reference type: load/store), exactly the fields the
  cache reconstruction consumes;
- **branch records** — one record per control transfer, carrying the PC,
  next PC, outcome, and the classification needed to replay effects on
  the PHT, BTB, and RAS.

:class:`SkipRegionLog` keeps both streams as plain tuples in lists and
answers every reverse-scan query of the
:class:`~repro.core.source.ReconstructionSource` protocol by literally
walking them — the paper's "log of all references".  The package ships
only the compacted :class:`~repro.core.compaction.CompactedSkipRegionLog`;
this module is the oracle the equivalence suites compare it with.  The
class doubles as a zero-argument source factory:
``ReverseStateReconstruction(source=SkipRegionLog)`` runs a method on it.
"""

from __future__ import annotations

import numpy as np

from repro.core.ras_reconstruct import reconstruct_ras_contents
from repro.core.source import (
    BR_CALL,
    BR_COND,
    BR_JUMP,
    BR_RET,
    REF_INSTRUCTION,
    REF_LOAD,
    REF_STORE,
    ReconstructionSource,
    tail_cutoff,
)

#: Deterministic per-record byte model for :meth:`SkipRegionLog.
#: stored_bytes` (CPython-flavoured estimates — tuple header plus element
#: references plus small-int overhead amortised).  Chosen constants, not
#: ``sys.getsizeof`` probes, so storage telemetry is stable across
#: platforms and runs.
RAW_MEMORY_RECORD_BYTES = 88
RAW_BRANCH_RECORD_BYTES = 112


class SkipRegionLog(ReconstructionSource):
    """Buffered raw skip-region reference streams for one gap.

    Memory records are ``(address, kind)`` with kind one of REF_LOAD,
    REF_STORE, REF_INSTRUCTION.  Branch records are
    ``(pc, next_pc, taken, kind)`` with kind one of BR_COND, BR_CALL,
    BR_RET, BR_JUMP.  Both lists are in program order (oldest first);
    reconstruction iterates them in reverse.
    """

    __slots__ = ("memory_records", "branch_records", "telemetry",
                 "peak_stored_records", "peak_stored_bytes")

    def __init__(self, telemetry=None) -> None:
        self.memory_records: list[tuple[int, int]] = []
        self.branch_records: list[tuple[int, int, bool, int]] = []
        #: Optional telemetry session.  Counts are reported in bulk at
        #: :meth:`clear` — never per record, since the append hooks run
        #: for every skipped instruction and must stay allocation-free.
        self.telemetry = telemetry
        #: Largest per-gap retention seen over the source's lifetime
        #: (updated at :meth:`clear`; for the raw log, retention equals
        #: the raw stream length).
        self.peak_stored_records = 0
        self.peak_stored_bytes = 0

    # -- hook factories (installed on FunctionalMachine.run) ---------------

    def make_mem_hook(self):
        """Hook recording data references."""
        append = self.memory_records.append

        def mem_hook(pc, next_pc, address, is_store):
            append((address, REF_STORE if is_store else REF_LOAD))

        return mem_hook

    def make_ifetch_hook(self):
        """Hook recording instruction-block fetches."""
        append = self.memory_records.append

        def ifetch_hook(address):
            append((address, REF_INSTRUCTION))

        return ifetch_hook

    def make_branch_hook(self):
        """Hook recording control transfers."""
        append = self.branch_records.append

        def branch_hook(pc, next_pc, inst, taken):
            if inst.is_cond_branch:
                kind = BR_COND
            elif inst.is_call:
                kind = BR_CALL
            elif inst.is_ret:
                kind = BR_RET
            else:
                kind = BR_JUMP
            append((pc, next_pc, taken, kind))

        return branch_hook

    # -- raw-stream access (kept for tests, benches, and analysis code) -----

    def memory_tail(self, fraction: float) -> list[tuple[int, int]]:
        """The most recent `fraction` of memory records (program order)."""
        return self._tail(self.memory_records, fraction)

    def branch_tail(self, fraction: float) -> list[tuple[int, int, bool, int]]:
        """The most recent `fraction` of branch records (program order)."""
        return self._tail(self.branch_records, fraction)

    @staticmethod
    def _tail(records: list, fraction: float) -> list:
        cutoff = tail_cutoff(len(records), fraction)
        if cutoff <= 0:
            # A copy, never the live list: a consumer holding the tail
            # across clear() must not see it mutate underfoot.
            return records[:]
        return records[cutoff:]

    # -- ReconstructionSource: accounting -----------------------------------

    def memory_record_count(self) -> int:
        return len(self.memory_records)

    def branch_record_count(self) -> int:
        return len(self.branch_records)

    def record_count(self) -> int:
        return len(self.memory_records) + len(self.branch_records)

    def stored_records(self) -> int:
        """The raw log retains every record it observed."""
        return self.record_count()

    def stored_bytes(self) -> int:
        return (len(self.memory_records) * RAW_MEMORY_RECORD_BYTES
                + len(self.branch_records) * RAW_BRANCH_RECORD_BYTES)

    # -- ReconstructionSource: reverse-scan queries --------------------------

    def iter_memory_reverse(self, fraction: float):
        records = self.memory_records
        cutoff = tail_cutoff(len(records), fraction)
        for position in range(len(records) - 1, cutoff - 1, -1):
            yield records[position]

    def memory_reverse_arrays(self, fraction: float):
        """Materialize the reverse memory tail as (addresses, kinds)."""
        records = self.memory_records
        cutoff = tail_cutoff(len(records), fraction)
        tail = records[cutoff:] if cutoff > 0 else records
        if not tail:
            return np.empty(0, np.uint64), np.empty(0, np.uint64)
        # Unsigned: effective addresses span the whole 64-bit space.
        columns = np.array(tail, dtype=np.uint64)
        return columns[::-1, 0], columns[::-1, 1]

    def recent_conditional_outcomes(self, fraction: float,
                                    limit: int) -> list:
        records = self.branch_records
        cutoff = tail_cutoff(len(records), fraction)
        outcomes: list[int] = []
        for position in range(len(records) - 1, cutoff - 1, -1):
            record = records[position]
            if record[3] == BR_COND:
                outcomes.append(int(record[2]))
                if len(outcomes) >= limit:
                    break
        return outcomes

    def iter_btb_claims_reverse(self, fraction: float):
        records = self.branch_records
        cutoff = tail_cutoff(len(records), fraction)
        for position in range(len(records) - 1, cutoff - 1, -1):
            pc, next_pc, taken, kind = records[position]
            if kind == BR_RET or not taken:
                continue
            yield pc, next_pc

    def btb_claims_arrays(self, fraction: float):
        """Materialize the reverse BTB-claim tail as (pcs, targets)."""
        records = self.branch_records
        cutoff = tail_cutoff(len(records), fraction)
        tail = records[cutoff:] if cutoff > 0 else records
        if not tail:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        columns = np.array(tail, dtype=np.int64)
        keep = (columns[:, 3] != BR_RET) & (columns[:, 2] != 0)
        claims = columns[keep]
        return claims[::-1, 0], claims[::-1, 1]

    def ras_tail_contents(self, fraction: float, capacity: int) -> list:
        return reconstruct_ras_contents(self.branch_tail(fraction), capacity)

    def pht_entry_windows(self, fraction: float, mask: int,
                          history_bits: int, max_history: int):
        """Walk the tail's conditionals newest first, keeping each
        entry's newest `max_history` outcomes."""
        windows: dict[int, tuple[int, int]] = {}
        stream = self.conditional_history(fraction, history_bits)
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.count("reconstruct.log_walk_steps", len(stream))
        for pc, taken, ghr in reversed(stream):
            entry = (pc ^ ghr) & mask
            length, bits = windows.get(entry, (0, 0))
            if length < max_history:
                windows[entry] = (length + 1, bits | taken << length)
        entries = sorted(windows)
        return (np.array(entries, np.int64),
                np.array([windows[entry][0] << max_history
                          | windows[entry][1] for entry in entries],
                         np.int64))

    def conditional_history(self, fraction: float,
                            history_bits: int) -> list:
        """``(pc, taken, ghr_before)`` for each conditional of the tail,
        program order, with the GHR zeroed at the tail start: the input
        of the on-demand walk (tests/oracle_engine.py)."""
        records = self.branch_records
        cutoff = tail_cutoff(len(records), fraction)
        ghr_mask = (1 << history_bits) - 1
        conditionals: list[tuple[int, int, int]] = []
        running = 0
        for position in range(cutoff, len(records)):
            pc, _next_pc, taken, kind = records[position]
            if kind != BR_COND:
                continue
            conditionals.append((pc, int(taken), running))
            running = ((running << 1) | int(taken)) & ghr_mask
        return conditionals

    # -- lifecycle -----------------------------------------------------------

    def clear(self) -> None:
        """Discard the gap's data (called after every cluster)."""
        memory = len(self.memory_records)
        branch = len(self.branch_records)
        stored = memory + branch
        stored_bytes = self.stored_bytes()
        if stored > self.peak_stored_records:
            self.peak_stored_records = stored
        if stored_bytes > self.peak_stored_bytes:
            self.peak_stored_bytes = stored_bytes
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.count("log.memory_records", memory)
            telemetry.count("log.branch_records", branch)
            telemetry.count("log.stored_records", stored)
            telemetry.count("log.stored_bytes", stored_bytes)
            telemetry.observe("log.gap_stored_records", stored)
            telemetry.observe("log.gap_stored_bytes", stored_bytes)
        self.memory_records.clear()
        self.branch_records.clear()


#: ``ReverseStateReconstruction(source=...)`` for each equivalence-cell
#: label: the raw oracle, and the package's compacted log (the default).
SOURCES = {"raw": SkipRegionLog, "compacted": None}
