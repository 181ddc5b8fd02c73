"""Reverse branch-predictor reconstruction (paper §3.2).

Responsibilities, in the order they run at the cluster boundary:

1. **Global history register** — "the global history register must first
   be reconstructed using the last n branches of the skip-region trace";
   only then can PHT entries be indexed correctly.
2. **BTB** — rebuilt eagerly by a reverse pass, "similar to the cache
   reconstruction since the BTB can be viewed as a direct mapped cache":
   the most recent taken transfer to claim an entry wins.
3. **RAS** — rebuilt by the reverse push/pop counter algorithm
   (:mod:`repro.core.ras_reconstruct`).
4. **PHT counters** — the paper resolves each entry on demand, the first
   time the next cluster probes it.  Here every entry the log mentions is
   resolved at the boundary instead, in one pass: the source serves each
   entry's reverse outcome window (its newest ``max_history`` outcomes,
   indexed with the GHR zeroed at the tail start) and the
   counter-inference table maps every packed window to its value.

Boundary resolution is the same state transition as the on-demand walk:
a probe resolves its entry before the cluster's first update of it, so
the update trains the same inferred value either way, and the walk's
post-cluster drain resolved every entry no probe reached to the value
the boundary pass writes.  An exact inference is insensitive to outcomes
older than its pin point and the table truncates longer histories to its
window, so a bounded window resolves to what the unbounded walk would.
The test suite keeps the paper's literal walk, one probe at a time, as
the oracle this is checked against (tests/oracle_engine.py).

Every input arrives through the :class:`~repro.core.source.
ReconstructionSource` protocol.
"""

from __future__ import annotations

import numpy as np

from ..branch import BranchPredictor
from ..telemetry import METRIC_PHT_ENTRIES, NULL_TELEMETRY
from .counter_table import CounterInferenceTable, default_table
from .ras_reconstruct import reconstruct_ras_from_source
from .source import ReconstructionSource


class ReverseBranchReconstructor:
    """Reverse reconstruction of one branch predictor at a cluster
    boundary."""

    def __init__(self, predictor: BranchPredictor,
                 table: CounterInferenceTable | None = None,
                 infer_counters: bool = True,
                 telemetry=None) -> None:
        self.predictor = predictor
        self.table = table if table is not None else default_table()
        #: Ablation switch: when False, PHT entries keep their stale
        #: counters (GHR/BTB/RAS repair only).
        self.infer_counters = infer_counters
        #: The last boundary's PHT windows, ``(entries, codes)`` (see
        #: :meth:`ReconstructionSource.pht_entry_windows`).
        self._windows = (np.empty(0, np.int64), np.empty(0, np.int64))
        #: PHT counters the last boundary wrote.
        self.counter_writes = 0
        self.ras_entries_recovered = 0
        self.telemetry = (telemetry if telemetry is not None
                          else NULL_TELEMETRY)

    def prepare(self, source: ReconstructionSource,
                fraction: float = 1.0) -> None:
        """Reconstruct the GHR, BTB, RAS and PHT from the tail."""
        predictor = self.predictor
        predictor.clear_reconstructed()
        self.counter_writes = 0

        # --- step 1: global history register -----------------------------
        pht = predictor.pht
        history_bits = pht.history_bits
        outcomes = source.recent_conditional_outcomes(fraction, history_bits)
        if outcomes:
            ghr = 0
            for age, taken in enumerate(outcomes):
                ghr |= taken << age
            pht.set_history(ghr)

        # --- step 2: BTB, newest claimant wins ----------------------------
        self.telemetry.count("reconstruct.btb_entries",
                             self._rebuild_btb(source, fraction))

        # --- step 3: RAS ---------------------------------------------------
        self.ras_entries_recovered = reconstruct_ras_from_source(
            predictor.ras, source, fraction)
        self.telemetry.count("reconstruct.ras_entries",
                             self.ras_entries_recovered)

        # --- step 4: every mentioned PHT entry, in one pass ----------------
        entries, codes = self._windows = source.pht_entry_windows(
            fraction, pht.entries - 1, history_bits, self.table.max_history)
        if self.infer_counters:
            self._write_counters(entries, codes)

    def _rebuild_btb(self, source: ReconstructionSource,
                     fraction: float) -> int:
        """Rebuild the BTB from the newest-first claims; return how many
        claims were scanned.

        In a direct-mapped structure only each entry's newest claim
        writes — older claimants find the entry already reconstructed —
        so the winner set is the first occurrence of each entry index in
        the claim columns.  Winners go through the scalar primitive
        (identical state and `updates` accounting); losers never needed
        a call.  The count still covers every scanned claim, as the
        per-claim loop in the test oracle does (tests/oracle_engine.py).
        """
        btb = self.predictor.btb
        pcs, targets = source.btb_claims_arrays(fraction)
        if len(pcs):
            _, first = np.unique(pcs & (btb.entries - 1), return_index=True)
            first.sort()
            reconstruct = btb.reconstruct
            for pc, target in zip(pcs[first].tolist(),
                                  targets[first].tolist()):
                reconstruct(pc, target)
        return len(pcs)

    def _write_counters(self, entries: np.ndarray,
                        codes: np.ndarray) -> None:
        """Write each window's inferred counter; a window that infers no
        value (no history) leaves its entry stale."""
        values = self.table.code_values[codes]
        known = values >= 0
        counters = self.predictor.pht.counters
        for entry, value in zip(entries[known].tolist(),
                                values[known].tolist()):
            counters[entry] = value
        written = int(known.sum())
        self.counter_writes = written
        if written:
            self.telemetry.count(METRIC_PHT_ENTRIES, written)

    # -- diagnostics ----------------------------------------------------------

    def inference_census(self) -> dict:
        """Classify every PHT entry the last boundary's log mentioned.

        Returns counts keyed for the audit record: entries mentioned in
        the log, how many resolve exactly, the two/three-wide ambiguous
        sets, entries left stale (never mentioned), and the total
        ambiguity mass ``sum(len(possible) - 1)`` over mentioned entries.
        """
        table = self.table
        depth = table.max_history
        window_mask = (1 << depth) - 1
        exact = ambiguous_two = ambiguous_three = 0
        ambiguity_mass = 0
        codes = self._windows[1].tolist()
        for code in codes:
            inference = table.lookup(code >> depth, code & window_mask)
            width = len(inference.possible)
            if inference.exact:
                exact += 1
            elif width == 2:
                ambiguous_two += 1
            elif width == 3:
                ambiguous_three += 1
            ambiguity_mass += width - 1
        return {
            "pht_entries_mentioned": len(codes),
            "pht_exact": exact,
            "pht_ambiguous_two": ambiguous_two,
            "pht_ambiguous_three": ambiguous_three,
            "pht_stale": self.predictor.pht.entries - len(codes),
            "pht_ambiguity_mass": ambiguity_mass,
        }
