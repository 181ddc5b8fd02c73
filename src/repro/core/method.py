"""The Reverse State Reconstruction warm-up method (paper §3).

Skip-region behaviour: cold functional simulation with logging hooks —
"no analysis is performed between clusters except for logging the needed
information for reconstruction."  Immediately before each cluster the
cache hierarchy is rebuilt by a reverse scan of the memory log and the
branch predictor's GHR/BTB/RAS are rebuilt from the branch log; PHT
counters are reconstructed on demand as the cluster executes.

The `fraction` parameter matches the paper's R$ / R$BP percentages: the
*entire* skip region is always logged ("all accounting information
necessary for reconstruction is logged in the skip region, regardless of
the warm-up percentage"), but only the most recent `fraction` of the log
is consumed by reconstruction.
"""

from __future__ import annotations

from ..warmup.base import WarmupMethod, SimulationContext
from .branch_reconstruct import ReverseBranchReconstructor
from .cache_reconstruct import CacheReconstructionStats, ReverseCacheReconstructor
from .counter_table import CounterInferenceTable, default_table
from .source import make_source

#: Skipped instructions between two trims of the skip log
#: (:meth:`~repro.core.source.ReconstructionSource.trim`).
SKIP_FOLD_INSTRUCTIONS = 8192


class ReverseStateReconstruction(WarmupMethod):
    """Paper Table 2 entries R$ (x%), RBP, and R$BP (x%)."""

    #: RSR's pre_cluster needs nothing but the current gap's log, so its
    #: clusters can run as independent shards (two-phase pipeline).
    shardable = True

    def __init__(
        self,
        fraction: float = 1.0,
        warm_cache: bool = True,
        warm_predictor: bool = True,
        table: CounterInferenceTable | None = None,
        on_demand: bool = True,
        infer_counters: bool = True,
        source=None,
    ) -> None:
        super().__init__()
        if not 0.0 < fraction <= 1.0:
            raise ValueError(
                f"reconstruction fraction must be in (0, 1], got {fraction!r}"
            )
        if not (warm_cache or warm_predictor):
            raise ValueError("at least one structure must be warmed")
        if source is not None and not callable(source):
            raise TypeError(
                f"source must be None or a zero-argument factory, "
                f"got {source!r}"
            )
        self.fraction = fraction
        self.warm_cache = warm_cache
        self.warm_predictor = warm_predictor
        #: Ablation switches (DESIGN.md §5): `on_demand=False` drains the
        #: whole branch log eagerly before the cluster; `infer_counters=
        #: False` skips counter inference (GHR/BTB/RAS repair only).
        self.on_demand = on_demand
        self.infer_counters = infer_counters
        #: Skip-log source: None (the compacted log) or a zero-argument
        #: factory returning a ready ReconstructionSource.
        self.source = source
        self.warms_cache = warm_cache
        self.warms_predictor = warm_predictor
        percent = int(round(fraction * 100))
        if warm_cache and warm_predictor:
            self.name = f"R$BP ({percent}%)"
        elif warm_cache:
            self.name = f"R$ ({percent}%)"
        else:
            self.name = "RBP"

        #: None until bind(): the log is sized to the context's geometry,
        #: so it is built per run.
        self.log = None
        self._cache_reconstructor: ReverseCacheReconstructor | None = None
        self._branch_reconstructor: ReverseBranchReconstructor | None = None
        self._table = table
        #: Per-cluster cache-reconstruction statistics (diagnostics).
        self.cache_stats_history: list[CacheReconstructionStats] = []

    def bind(self, context: SimulationContext) -> None:
        super().bind(context)
        # The telemetry session is per run, so the log and reconstructors
        # (which count into it) are rebuilt on every bind.
        self.log = make_source(
            self.source,
            context=context,
            fraction=self.fraction,
            warm_cache=self.warm_cache,
            warm_predictor=self.warm_predictor,
            table=self._table,
            telemetry=self.telemetry,
        )
        self.cache_stats_history = []
        self._cache_reconstructor = ReverseCacheReconstructor(
            context.hierarchy, telemetry=self.telemetry
        )
        self._branch_reconstructor = ReverseBranchReconstructor(
            context.predictor, table=self._table,
            infer_counters=self.infer_counters,
            telemetry=self.telemetry,
        )

    # -- skip region: cold execution + logging -------------------------------

    def skip(self, count: int) -> None:
        context = self.context
        log = self.log
        records_before = log.record_count()

        mem_hook = log.make_mem_hook() if self.warm_cache else None
        ifetch_hook = log.make_ifetch_hook() if self.warm_cache else None
        branch_hook = log.make_branch_hook() if self.warm_predictor else None
        # A source may compile its appends into the translated blocks.
        make_emitter = getattr(log, "make_emitter", None)
        emitter = make_emitter() if make_emitter is not None else None

        machine = context.machine
        block_bytes = context.hierarchy.l1i.config.line_bytes
        executed = 0
        # Slices bound the records pending between trims; the machine
        # carries ifetch continuity across run() calls.
        while executed < count and not machine.halted:
            executed += machine.run(
                min(SKIP_FOLD_INSTRUCTIONS, count - executed),
                mem_hook=mem_hook,
                branch_hook=branch_hook,
                ifetch_hook=ifetch_hook,
                ifetch_block_bytes=block_bytes,
                emitter=emitter,
            )
            log.trim()
        self.cost.functional_instructions += executed
        self.cost.log_records += log.record_count() - records_before

    # -- cluster sharding ------------------------------------------------------

    def clone_unbound(self):
        """Unbound clone for shard workers (configuration only).

        `bind` rebuilds the log and both reconstructors, so the clone
        ships placeholders instead of the (potentially filled, context-
        entangled) live instances.
        """
        clone = super().clone_unbound()
        clone.log = None
        clone._cache_reconstructor = None
        clone._branch_reconstructor = None
        clone.cache_stats_history = []
        return clone

    def detach_source(self):
        """Hand over the filled gap log; start a fresh one for the next gap.

        The surrendered source is prepared for pickling (telemetry
        stripped — see :meth:`ReconstructionSource.handoff`); the
        replacement is built with the same factory and geometry, so the
        cold scan keeps logging seamlessly.
        """
        filled = self.log.handoff()
        self.log = make_source(
            self.source,
            context=self.context,
            fraction=self.fraction,
            warm_cache=self.warm_cache,
            warm_predictor=self.warm_predictor,
            table=self._table,
            telemetry=self.telemetry,
        )
        return filled

    def adopt_source(self, source) -> None:
        """Consume a handed-off gap log in place of this bind's own."""
        source.adopt_telemetry(self.telemetry)
        self.log = source

    def store_identity(self) -> "dict | None":
        """Checkpoint-store identity: every knob shaping the cold scan.

        None when a source factory is set — a third-party source has no
        stable identity the store could key on, so those runs are simply
        not persisted.  `max_history` matters because the compacted log
        sizes its PHT windows to it.
        """
        if self.source is not None:
            return None
        table = self._table if self._table is not None else default_table()
        return {
            "method": type(self).__name__,
            "name": self.name,
            "fraction": self.fraction,
            "warm_cache": self.warm_cache,
            "warm_predictor": self.warm_predictor,
            "on_demand": self.on_demand,
            "infer_counters": self.infer_counters,
            "max_history": table.max_history,
        }

    # -- cluster boundary ------------------------------------------------------

    def pre_cluster(self):
        before = self._updates_now()
        hook = None
        if self.warm_cache:
            stats = self._cache_reconstructor.reconstruct(
                self.log, self.fraction
            )
            self.cache_stats_history.append(stats)
        if self.warm_predictor:
            self._branch_reconstructor.prepare(self.log, self.fraction)
            self.cost.predictor_updates += (
                self._branch_reconstructor.ras_entries_recovered
            )
            if self.on_demand:
                hook = self._branch_reconstructor.make_hook()
            else:
                self._branch_reconstructor.drain()
        self._charge_updates(before)
        return hook

    def finalize_pending(self) -> None:
        """Drain the on-demand PHT walker (analysis support).

        Finalised values are identical to what in-cluster probes would
        reconstruct; only entries no probe would have touched gain
        (equally inferred) values early.
        """
        if self.warm_predictor and self._branch_reconstructor is not None:
            self._branch_reconstructor.drain()

    def audit_census(self) -> dict | None:
        """PHT inference census for the accuracy audit, or None.

        Must be taken at the cluster boundary *before*
        :meth:`finalize_pending` — the census reads the armed on-demand
        engine non-destructively, while a drain consumes it.
        """
        if not self.warm_predictor or self._branch_reconstructor is None:
            return None
        return self._branch_reconstructor.inference_census()

    def post_cluster(self) -> None:
        if self.warm_predictor:
            # Residual finalisation: entries the cluster never probed are
            # resolved now, so the counter state carried into later
            # clusters is independent of the probe order and of the PHT
            # engine (walker vs windows).  Entries the cluster trained
            # stay authoritative.
            self._branch_reconstructor.drain()
            # On-demand counter writes happened during the hot cluster.
            self.cost.predictor_updates += (
                self._branch_reconstructor.counter_writes
            )
            self._branch_reconstructor.counter_writes = 0
        self.log.clear()
