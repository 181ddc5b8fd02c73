"""Reverse branch-predictor reconstruction (paper §3.2).

Responsibilities, in the order they run:

1. **Global history register** — "the global history register must first
   be reconstructed using the last n branches of the skip-region trace";
   only then can PHT entries be indexed correctly.
2. **BTB** — rebuilt eagerly by a reverse pass, "similar to the cache
   reconstruction since the BTB can be viewed as a direct mapped cache":
   the most recent taken transfer to claim an entry wins.
3. **RAS** — rebuilt by the reverse push/pop counter algorithm
   (:mod:`repro.core.ras_reconstruct`).
4. **PHT counters** — reconstructed *on demand* during the next cluster:
   "as branches are encountered in the next cluster, the branch predictor
   is probed to determine if the entry has been reconstructed.  If not,
   the entry is first reconstructed before hot execution continues."

Every input arrives through the :class:`~repro.core.source.
ReconstructionSource` protocol.  For step 4 there are two engines:

- **window mode** — a compacted source that indexed the PHT during
  logging serves each entry's bounded reverse outcome window in O(1);
  the counter-inference table resolves it to the same value the raw walk
  would produce (an exact inference is insensitive to outcomes older
  than its pin point, and the table truncates longer histories to its
  window anyway).
- **walker mode** — the raw fallback: a cursor walks the conditional
  stream newest-to-oldest once per cluster, accumulating per-entry
  reverse histories and finalising each entry as soon as its history
  pins the counter.

After the cluster, :meth:`drain` finalises the residue in both engines,
so the counter state carried into later clusters is independent of the
probe order and of the log representation.
"""

from __future__ import annotations

import numpy as np

from ..branch import BranchPredictor
from ..telemetry import NULL_TELEMETRY
from .counter_table import CounterInferenceTable, default_table
from .ras_reconstruct import reconstruct_ras_from_source
from .source import ReconstructionSource


class ReverseBranchReconstructor:
    """On-demand reverse reconstruction of one branch predictor."""

    def __init__(self, predictor: BranchPredictor,
                 table: CounterInferenceTable | None = None,
                 infer_counters: bool = True,
                 telemetry=None) -> None:
        self.predictor = predictor
        self.table = table if table is not None else default_table()
        #: Ablation switch: when False, PHT entries are marked reconstructed
        #: without writing inferred counter values (stale counters remain).
        self.infer_counters = infer_counters
        self._conditionals: list[tuple[int, bool, int]] = []
        self._cursor = -1
        #: Window mode: entry index -> (length, reverse-order bits), served
        #: by a compacted source; None selects the walker fallback.
        self._windows: dict[int, tuple[int, int]] | None = None
        #: Walker mode: entry index -> (history length, bits, reverse-order).
        self._pending: dict[int, tuple[int, int]] = {}
        self.counter_writes = 0
        self.ras_entries_recovered = 0
        self.log_walk_steps = 0
        # Instruments resolved once; the null registry hands back shared
        # no-op singletons, so the on-demand walker stays cheap untraced.
        registry = (telemetry if telemetry is not None
                    else NULL_TELEMETRY).registry
        self._pht_counter = registry.counter("reconstruct.pht_entries")
        self._btb_counter = registry.counter("reconstruct.btb_entries")
        self._ras_counter = registry.counter("reconstruct.ras_entries")
        self._walk_counter = registry.counter("reconstruct.log_walk_steps")

    # -- eager phase (immediately before the cluster) -----------------------

    def prepare(self, source: ReconstructionSource,
                fraction: float = 1.0) -> None:
        """Run the eager reconstruction steps and arm the on-demand engine."""
        predictor = self.predictor
        predictor.clear_reconstructed()
        self._pending = {}
        self.counter_writes = 0
        self.log_walk_steps = 0

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
        self._btb_counter.inc(self._rebuild_btb(source, fraction))

        # --- step 3: RAS ---------------------------------------------------
        self.ras_entries_recovered = reconstruct_ras_from_source(
            predictor.ras, source, fraction)
        self._ras_counter.inc(self.ras_entries_recovered)

        # --- step 4: arm the on-demand PHT engine --------------------------
        windows = source.pht_entry_windows(
            fraction, pht.entries - 1, history_bits, self.table.max_history)
        if windows is not None:
            self._windows = windows
            self._conditionals = []
            self._cursor = -1
            return
        self._windows = None
        # Walker fallback: the GHR in effect *before* each conditional of
        # the tail (the GHR preceding the tail is unobservable and
        # approximated as zero, which only affects the oldest
        # `history_bits` conditionals of the tail).
        self._conditionals = source.conditional_history(fraction,
                                                        history_bits)
        self._cursor = len(self._conditionals) - 1

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

    # -- on-demand phase (during the cluster) ------------------------------

    def demand(self, entry: int) -> None:
        """Reconstruct PHT `entry`.

        Window mode pops the entry's precompacted reverse window and
        resolves it in one table lookup.  Walker mode walks the reverse
        log as far as needed; every other entry met along the way has its
        reverse history extended and is finalised the moment the history
        pins its counter, so the log is consumed exactly once per cluster.
        """
        pht = self.predictor.pht
        reconstructed = pht.reconstructed
        if reconstructed[entry]:
            return
        windows = self._windows
        if windows is not None:
            length, bits = windows.pop(entry, (0, 0))
            self.log_walk_steps += length
            self._walk_counter.inc(length)
            self._finalize(entry, self.table.lookup(length, bits).value)
            return
        conditionals = self._conditionals
        pending = self._pending
        table = self.table
        mask = pht.entries - 1
        cursor = self._cursor
        cursor_at_entry = cursor

        while cursor >= 0 and not reconstructed[entry]:
            pc, taken, ghr_before = conditionals[cursor]
            cursor -= 1
            self.log_walk_steps += 1
            index = (pc ^ ghr_before) & mask
            if reconstructed[index]:
                continue
            length, bits = pending.get(index, (0, 0))
            # Walking newest -> oldest: this outcome is the next-older bit.
            bits |= int(taken) << length
            length += 1
            inference = table.lookup(length, bits)
            if inference.exact:
                self._finalize(index, inference.value)
                pending.pop(index, None)
            else:
                pending[index] = (length, bits)
        self._cursor = cursor
        self._walk_counter.inc(cursor_at_entry - cursor)

        if not reconstructed[entry]:
            # Log exhausted: resolve with whatever history accumulated.
            length, bits = pending.pop(entry, (0, 0))
            inference = table.lookup(length, bits)
            self._finalize(entry, inference.value)

    def _finalize(self, entry: int, value: int | None) -> None:
        pht = self.predictor.pht
        if value is not None and self.infer_counters:
            pht.counters[entry] = value
            self.counter_writes += 1
            self._pht_counter.inc()
        pht.reconstructed[entry] = True

    def drain(self) -> None:
        """Finalise every log-mentioned entry not yet reconstructed.

        Used eagerly (the on_demand=False ablation) and as the residual
        pass after every cluster, so the counters carried into the next
        cluster do not depend on which entries the cluster happened to
        probe.  Entries already reconstructed — by a probe or by hot
        training, which is authoritative — are left untouched.
        """
        pht = self.predictor.pht
        reconstructed = pht.reconstructed
        table = self.table
        windows = self._windows
        if windows is not None:
            steps = 0
            for entry, (length, bits) in windows.items():
                steps += length
                if not reconstructed[entry]:
                    self._finalize(entry, table.lookup(length, bits).value)
            windows.clear()
            self.log_walk_steps += steps
            self._walk_counter.inc(steps)
            return
        pending = self._pending
        mask = pht.entries - 1
        cursor = self._cursor
        cursor_at_entry = cursor
        while cursor >= 0:
            pc, taken, ghr_before = self._conditionals[cursor]
            cursor -= 1
            self.log_walk_steps += 1
            index = (pc ^ ghr_before) & mask
            if reconstructed[index]:
                continue
            length, bits = pending.get(index, (0, 0))
            bits |= int(taken) << length
            length += 1
            inference = table.lookup(length, bits)
            if inference.exact:
                self._finalize(index, inference.value)
                pending.pop(index, None)
            else:
                pending[index] = (length, bits)
        self._cursor = cursor
        self._walk_counter.inc(cursor_at_entry - cursor)
        for entry, (length, bits) in list(pending.items()):
            if not reconstructed[entry]:
                self._finalize(entry, table.lookup(length, bits).value)
        pending.clear()

    # -- diagnostics ----------------------------------------------------------

    def inference_census(self) -> dict:
        """Classify every log-mentioned PHT entry's pending inference.

        Non-destructive: reads the armed on-demand engine (windows or
        the conditional tail from the current cursor) without consuming
        it.  Both engines yield identical censuses for the same log —
        an exact inference is insensitive to outcomes older than its pin
        point, and the table truncates longer histories — which is what
        lets the audit JSON of the compacted log and of the raw test
        oracle agree bit-for-bit.

        Returns counts keyed for the audit record: entries mentioned in
        the log, how many resolve exactly, the two/three-wide ambiguous
        sets, entries left stale (never mentioned), and the total
        ambiguity mass ``sum(len(possible) - 1)`` over mentioned entries.
        """
        pht = self.predictor.pht
        table = self.table
        exact = ambiguous_two = ambiguous_three = 0
        ambiguity_mass = 0

        def tally(inference) -> None:
            nonlocal exact, ambiguous_two, ambiguous_three, ambiguity_mass
            width = len(inference.possible)
            if inference.exact:
                exact += 1
            elif width == 2:
                ambiguous_two += 1
            elif width == 3:
                ambiguous_three += 1
            ambiguity_mass += width - 1

        windows = self._windows
        if windows is not None:
            mentioned = len(windows)
            for length, bits in windows.values():
                tally(table.lookup(length, bits))
        else:
            # Replay the remaining tail with drain's accumulation rules,
            # without touching cursor/pending/reconstructed state.
            reconstructed = self.predictor.pht.reconstructed
            mask = pht.entries - 1
            histories = dict(self._pending)
            resolved: dict[int, object] = {}
            for cursor in range(self._cursor, -1, -1):
                pc, taken, ghr_before = self._conditionals[cursor]
                index = (pc ^ ghr_before) & mask
                if index in resolved or reconstructed[index]:
                    continue
                length, bits = histories.get(index, (0, 0))
                bits |= int(taken) << length
                length += 1
                inference = table.lookup(length, bits)
                if inference.exact:
                    resolved[index] = inference
                    histories.pop(index, None)
                else:
                    histories[index] = (length, bits)
            for index, (length, bits) in histories.items():
                resolved[index] = table.lookup(length, bits)
            mentioned = len(resolved)
            for inference in resolved.values():
                tally(inference)

        return {
            "pht_entries_mentioned": mentioned,
            "pht_exact": exact,
            "pht_ambiguous_two": ambiguous_two,
            "pht_ambiguous_three": ambiguous_three,
            "pht_stale": pht.entries - mentioned,
            "pht_ambiguity_mass": ambiguity_mass,
        }

    # -- hot-loop hook --------------------------------------------------------

    def make_hook(self):
        """Hook for :meth:`TimingSimulator.run`: reconstruct the probed
        PHT entry on demand before each conditional branch predicts."""
        predictor = self.predictor
        pht = predictor.pht
        reconstructed = pht.reconstructed
        demand = self.demand
        mask = pht._mask

        def pre_branch_hook(pc, inst):
            if not inst.is_cond_branch:
                return
            # pht.index(pc), in line.
            entry = (pc ^ pht.history) & mask
            if not reconstructed[entry]:
                demand(entry)
                # The hot update that follows trains this entry, so it is
                # authoritative from now on.
                reconstructed[entry] = True

        return pre_branch_hook
