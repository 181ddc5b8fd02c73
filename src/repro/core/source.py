"""The reconstruction-source protocol.

Reverse State Reconstruction has two roles around one skip-region log:

- **producing** it: the hook factories installed on the functional
  machine while the gap executes cold;
- **consuming** it: the reverse-scan queries the cache, branch, and RAS
  reconstructors run immediately before the next cluster.

:class:`ReconstructionSource` names that contract.  The package ships one
implementation, :class:`~repro.core.compaction.CompactedSkipRegionLog`,
whose hooks only append and whose periodic fold performs the reverse-scan
dedup during the gap, so that reconstruction work is O(unique entries)
instead of O(gap length).  Every query is defined so that its answer is
bit-identical to a reverse scan of the full reference stream; the test
suite keeps that literal scan as an oracle (tests/oracle_skiplog.py;
docs/rsr-algorithm.md, "Online log compaction").

Third-party warm-up methods can supply their own source by implementing
this interface and passing a factory to
:class:`~repro.core.method.ReverseStateReconstruction`.
"""

from __future__ import annotations

#: Memory-record reference kinds.
REF_LOAD = 0
REF_STORE = 1
REF_INSTRUCTION = 2

#: Branch-record kinds.
BR_COND = 0
BR_CALL = 1
BR_RET = 2
BR_JUMP = 3


def tail_cutoff(count: int, fraction: float) -> int:
    """First record position inside the most recent `fraction` of a log.

    The shared rounding rule for every tail query: of `count` records the
    newest ``int(round(count * fraction))`` are kept, i.e. positions
    ``>= count - keep`` survive.  Raising on out-of-range fractions keeps
    every source failing identically.

    The cutoff never decreases as `count` grows (``keep`` rises by at
    most one per record because ``fraction <= 1``); the compacted log's
    fold relies on this to drop records that can never reach the tail.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(
            f"reconstruction fraction must be in (0, 1], got {fraction!r}"
        )
    keep = int(round(count * fraction))
    return count - keep


class ReconstructionSource:
    """Abstract skip-region log: producer hooks plus reverse-scan queries.

    Positions: memory and branch records occupy independent program-order
    streams, numbered from 0.  Every tail query takes the same `fraction`
    in (0, 1] and covers the records at positions ``>= tail_cutoff(count,
    fraction)`` of its stream.
    """

    __slots__ = ()

    # -- producer side (hooks installed on FunctionalMachine.run) ----------

    def make_mem_hook(self):
        """``hook(pc, next_pc, address, is_store)`` recording one data
        reference per call."""
        raise NotImplementedError

    def make_ifetch_hook(self):
        """``hook(address)`` recording one instruction-block fetch."""
        raise NotImplementedError

    def make_branch_hook(self):
        """``hook(pc, next_pc, inst, taken)`` recording one control
        transfer, classified by the instruction's flags."""
        raise NotImplementedError

    def compact(self) -> None:
        """Fold records appended since the last call into the retained
        form.  Sources that keep their records as appended (the default)
        do nothing."""

    def trim(self) -> None:
        """Bound what the skip has retained so far.  The skip loop calls
        this periodically; a source may drop what its consumer's tail can
        no longer reach instead of folding.  The default folds
        (:meth:`compact`)."""
        self.compact()

    # -- record accounting ---------------------------------------------------

    def memory_record_count(self) -> int:
        """Memory references observed since the last :meth:`clear`."""
        raise NotImplementedError

    def branch_record_count(self) -> int:
        """Control transfers observed since the last :meth:`clear`."""
        raise NotImplementedError

    def record_count(self) -> int:
        """Total references observed (the WarmupCost ``log_records``
        metric — always the *raw* stream length, independent of how much
        the source actually retains)."""
        return self.memory_record_count() + self.branch_record_count()

    def stored_records(self) -> int:
        """Record slots currently retained in memory (compaction metric)."""
        raise NotImplementedError

    def stored_bytes(self) -> int:
        """Deterministic estimate of the bytes retained (see the byte
        model constants in :mod:`repro.core.compaction`)."""
        raise NotImplementedError

    # -- consumer side (reverse-scan queries) --------------------------------

    def memory_reverse_arrays(self, fraction: float):
        """The tail's memory references, newest first, as two parallel
        numpy arrays ``(addresses, kinds)`` (uint64 addresses, integer
        kinds) — so the reverse reconstructor can filter whole reference
        columns at once.

        A compacted source may omit references that a reverse scan would
        skip as redundant (older touches of an already-claimed block);
        the surviving sequence must preserve reverse order.
        """
        raise NotImplementedError

    def recent_conditional_outcomes(self, fraction: float,
                                    limit: int) -> list:
        """The newest ``<= limit`` conditional-branch outcomes in the
        tail, newest first (0/1 ints) — the GHR reconstruction input."""
        raise NotImplementedError

    def btb_claims_arrays(self, fraction: float):
        """The tail's BTB claims (taken, non-return transfers), newest
        first, as parallel integer numpy arrays ``(pcs, targets)``;
        compacted sources may keep only each pc's newest."""
        raise NotImplementedError

    def ras_tail_contents(self, fraction: float, capacity: int) -> list:
        """Final RAS contents (top first, at most `capacity`) implied by
        the tail — the reverse push/pop counter algorithm's answer."""
        raise NotImplementedError

    def pht_entry_windows(self, fraction: float, mask: int,
                          history_bits: int, max_history: int):
        """Per-PHT-entry reverse outcome windows of the tail.

        Indexes each tail conditional by ``(pc ^ GHR) & mask``, with the
        `history_bits`-wide GHR zeroed at the tail start (the GHR before
        the tail is unobservable), and returns ``(entries, codes)``: two
        int64 numpy arrays sorted by entry, one row per entry the tail
        mentions, where ``code = (length << max_history) | bits`` packs
        the entry's newest ``length <= max_history`` outcomes with bit i
        of `bits` its (i+1)-th most recent outcome.  The source counts
        the conditional outcomes it read to build them as
        ``reconstruct.log_walk_steps``.
        """
        raise NotImplementedError

    # -- lifecycle -----------------------------------------------------------

    def clear(self) -> None:
        """Discard the gap's data (paper: "data are kept only for the
        current cluster of execution").  Implementations report their
        telemetry totals here, in bulk, never per record."""
        raise NotImplementedError

    # -- cross-process hand-off ----------------------------------------------

    def handoff(self) -> "ReconstructionSource":
        """Prepare this source for transport into another process.

        The two-phase pipeline logs a gap in the cold-scan process and
        consumes it in a shard worker, so the filled source must pickle.
        The only process-bound piece of the bundled implementations is
        the telemetry session, which is dropped here (sessions are
        per-process; the worker re-attaches its own with
        :meth:`adopt_telemetry`).  Third-party sources holding other
        unpicklable state override this.  Returns ``self``.
        """
        self.telemetry = None
        return self

    def adopt_telemetry(self, telemetry) -> None:
        """Attach the consuming process's telemetry session (post
        hand-off); ``None`` leaves the source silent."""
        self.telemetry = telemetry


def make_source(factory=None, *, context=None, fraction: float = 1.0,
                warm_cache: bool = True, warm_predictor: bool = True,
                table=None, telemetry=None) -> ReconstructionSource:
    """Build a reconstruction source for one bound warm-up method.

    With no `factory` this is the compacted log, sized to `context`: the
    finest cache line granularity, the PHT index mask and GHR width, and
    the counter-inference window depth from `table`; `fraction` is the
    tail the consumer reads, which lets its fold drop older records.  A
    zero-argument `factory` returning a ready
    :class:`ReconstructionSource` replaces it (the third-party extension
    point, and the seam the test oracle uses); the built source then
    adopts `telemetry` like a handed-off one.
    """
    if factory is not None:
        source = factory()
        source.adopt_telemetry(telemetry)
        return source

    from .compaction import CompactedSkipRegionLog
    from .counter_table import default_table

    if context is None:
        raise ValueError("the skip log needs a simulation context "
                         "to size its retained structures")
    line_bytes = 64
    if warm_cache:
        hierarchy = context.hierarchy
        line_bytes = min(
            level.config.line_bytes
            for level in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)
        )
    pht_entries = 0
    history_bits = 0
    max_history = 0
    if warm_predictor:
        pht = context.predictor.pht
        pht_entries = pht.entries
        history_bits = pht.history_bits
        max_history = (table if table is not None
                       else default_table()).max_history
    # A full-fraction tail starts where the gap starts, so the running
    # GHR-indexed windows are exact; partial fractions re-zero the GHR at
    # the tail start and index the retained conditional stream instead.
    index_pht = warm_predictor and fraction >= 1.0
    return CompactedSkipRegionLog(
        line_bytes=line_bytes,
        pht_entries=pht_entries,
        history_bits=history_bits,
        max_history=max_history,
        index_pht=index_pht,
        store_conditionals=warm_predictor and not index_pht,
        fraction=fraction,
        telemetry=telemetry,
    )
