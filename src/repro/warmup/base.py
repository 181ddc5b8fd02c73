"""Warm-up method interface.

A warm-up method owns the *skip region*: everything that happens between
the end of one cluster and the start of the next.  It must keep
architectural state correct (by functionally executing every skipped
instruction) and may additionally repair microarchitectural state — that
repair policy is what distinguishes the methods the paper compares.

Lifecycle per sampled run::

    method.bind(context)          # once, before the first cluster
    for each cluster:
        method.skip(count)        # cold (+ warm) execution of the gap
        hook = method.pre_cluster()   # eager reconstruction, if any
        <hot simulation of the cluster, with optional pre-branch hook>
        method.post_cluster()     # discard per-gap data
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from ..telemetry import NULL_TELEMETRY


@dataclass
class WarmupCost:
    """Deterministic work accounting for one sampled run.

    `cache_updates` and `predictor_updates` count state-changing
    operations applied to microarchitectural structures during warm-up
    (the cost SMARTS pays for every skipped reference and that RSR
    avoids); `log_records` counts references buffered by logging methods;
    `functional_instructions` counts skip-region instructions executed
    (identical across methods by construction).
    """

    functional_instructions: int = 0
    hot_instructions: int = 0
    log_records: int = 0
    cache_updates: int = 0
    predictor_updates: int = 0

    #: Relative weights for the scalar work metric.  Functional execution
    #: of one instruction is the unit; a detailed (hot) instruction costs
    #: an order of magnitude more; log appends are cheaper than state
    #: updates, matching the paper's observation that "reducing the total
    #: number of updates ... results in faster simulation times".
    WEIGHT_FUNCTIONAL = 1.0
    WEIGHT_HOT = 12.0
    WEIGHT_LOG = 0.5
    WEIGHT_CACHE_UPDATE = 2.0
    WEIGHT_PREDICTOR_UPDATE = 1.0

    def work_units(self) -> float:
        """Scalar simulation-work metric (see DESIGN.md §2)."""
        return (
            self.functional_instructions * self.WEIGHT_FUNCTIONAL
            + self.hot_instructions * self.WEIGHT_HOT
            + self.log_records * self.WEIGHT_LOG
            + self.cache_updates * self.WEIGHT_CACHE_UPDATE
            + self.predictor_updates * self.WEIGHT_PREDICTOR_UPDATE
        )

    def warm_updates(self) -> int:
        return self.cache_updates + self.predictor_updates

    def as_dict(self) -> dict[str, int]:
        """Plain-dict rendering (telemetry snapshots, trace records)."""
        return {
            "functional_instructions": self.functional_instructions,
            "hot_instructions": self.hot_instructions,
            "log_records": self.log_records,
            "cache_updates": self.cache_updates,
            "predictor_updates": self.predictor_updates,
        }


def warming_hooks(hierarchy, predictor, warm_cache: bool = True,
                  warm_predictor: bool = True) -> dict:
    """Keyword arguments that make ``FunctionalMachine.run`` warm.

    The one construction of functional warming, shared by the warm-up
    methods' skips and the steady-state prefix: every data reference and
    every fetched instruction block goes through
    ``MemoryHierarchy.warm_access`` when `warm_cache`, and every control
    transfer trains ``BranchPredictor.update`` when `warm_predictor`.
    The hooks hold bound methods only, never a structure's state lists
    (``reset`` and ``load_state`` rebind those).
    """
    hooks = {"ifetch_block_bytes": hierarchy.l1i.config.line_bytes}
    if warm_cache:
        access = hierarchy.warm_access

        def mem_hook(pc, next_pc, address, is_store, _access=access):
            _access(address, is_store, False)

        def ifetch_hook(address, _access=access):
            _access(address, False, True)

        hooks["mem_hook"] = mem_hook
        hooks["ifetch_hook"] = ifetch_hook
    if warm_predictor:

        def branch_hook(pc, next_pc, inst, taken, _update=predictor.update):
            _update(pc, inst, taken, next_pc)

        hooks["branch_hook"] = branch_hook
    return hooks


@dataclass
class SimulationContext:
    """Everything a warm-up method may touch during the skip region."""

    machine: object      # FunctionalMachine
    hierarchy: object    # MemoryHierarchy
    predictor: object    # BranchPredictor
    regimen: object = None
    #: Telemetry session for the current run (null backend by default);
    #: methods and the core reconstruction paths report event counts
    #: through it, the controller owns phase timers and trace records.
    telemetry: object = field(default=NULL_TELEMETRY)

    @property
    def program(self):
        return self.machine.program


class WarmupMethod:
    """Base class; concrete methods override :meth:`skip` and optionally
    :meth:`pre_cluster` / :meth:`post_cluster`."""

    #: Short identifier used in tables (paper Table 2 naming).
    name = "abstract"
    #: Does the method repair cache state?
    warms_cache = False
    #: Does the method repair branch-predictor state?
    warms_predictor = False
    #: Can the method's clusters run as independent shards?  True only
    #: when everything :meth:`pre_cluster` needs is localized to the
    #: current gap (RSR: the skip-region log), so a shard that restores
    #: the gap-end architectural checkpoint and adopts the gap's
    #: reconstruction source reproduces the method's state repair.
    #: Methods that warm *continuously* through the run (SMARTS, fixed
    #: period, MRRL/BLRL) carry microarchitectural state across cluster
    #: boundaries and must stay on the serial path.  A shardable method
    #: must implement :meth:`detach_source` and :meth:`adopt_source`.
    shardable = False

    def __init__(self) -> None:
        self.context: SimulationContext | None = None
        self.cost = WarmupCost()
        self.telemetry = NULL_TELEMETRY

    def bind(self, context: SimulationContext) -> None:
        """Attach to a fresh simulation; resets cost accounting."""
        self.context = context
        self.cost = WarmupCost()
        self.telemetry = getattr(context, "telemetry", NULL_TELEMETRY)

    # -- skip-region handling ------------------------------------------------

    def skip(self, count: int) -> None:
        """Advance the functional machine by `count` instructions."""
        raise NotImplementedError

    def pre_cluster(self):
        """Eager state repair immediately before the next cluster.

        Returns an optional ``hook(pc, inst)`` the timing simulator calls
        before predicting each control transfer (used for on-demand
        reconstruction), or None.
        """
        return None

    def post_cluster(self) -> None:
        """Discard any per-gap data (paper: logs are kept only for the
        current skip region)."""

    def finalize_pending(self) -> None:
        """Force any lazily deferred state repair to complete now.

        A no-op for eager methods.  Analysis tooling (state-fidelity
        scoring) calls this at cluster entry so on-demand methods can be
        compared on the state their probes *would* observe."""

    # -- cluster sharding (two-phase pipeline) -------------------------------

    def clone_unbound(self) -> "WarmupMethod":
        """A fresh, unbound copy carrying only this method's configuration.

        The two-phase pipeline pickles one clone per run and unpickles it
        in every shard worker, where :meth:`bind` rebuilds all per-run
        state.  The default shallow-copies and re-runs the base
        bookkeeping reset; subclasses holding per-run state that
        :meth:`bind` does not fully rebuild (or that is expensive or
        unsafe to pickle) must extend this to purge it.
        """
        clone = copy.copy(self)
        WarmupMethod.__init__(clone)
        return clone

    def detach_source(self):
        """Surrender the just-logged gap's reconstruction source.

        Called by the cold-scan phase after :meth:`skip`, instead of
        :meth:`pre_cluster`: the returned source travels (pickled) to the
        shard worker that simulates the following cluster, and the method
        must swap in a fresh, empty source for the next gap.  Only
        meaningful when :attr:`shardable` is True.
        """
        raise NotImplementedError(
            f"{type(self).__name__} is not shardable"
        )

    def adopt_source(self, source) -> None:
        """Install a handed-off gap source (shard-worker side).

        The worker calls this on its freshly bound method clone before
        :meth:`pre_cluster`, so reconstruction consumes the gap logged by
        the cold scan.  Only meaningful when :attr:`shardable` is True.
        """
        raise NotImplementedError(
            f"{type(self).__name__} is not shardable"
        )

    def store_identity(self) -> "dict | None":
        """JSON-stable identity for checkpoint-store keys, or None.

        The two-phase pipeline persists Phase A shards only when the
        method can describe every configuration knob that affects what
        its cold scan produces (skip-region logging included) as stable
        primitives.  The default — None — declares the method not
        storable, which is always safe: runs merely skip the store.
        Shardable methods should override this; anything unserialisable
        in their configuration (e.g. a callable source factory) must
        resolve to None as well.
        """
        return None

    # -- shared helpers ------------------------------------------------------

    def _warm_skip(self, count: int, fraction: float,
                   warm_cache: bool = True,
                   warm_predictor: bool = True) -> None:
        """Skip `count` instructions, warming the trailing `fraction`.

        The skip of every functional-warming method (fixed period,
        SMARTS, MRRL, BLRL): the head runs cold, the tail runs with
        :func:`warming_hooks`, and the tail's cache and predictor updates
        are charged to :attr:`cost` and the run's telemetry.
        """
        context = self.context
        machine = context.machine
        warm_count = int(round(count * fraction))
        cold_count = count - warm_count
        if cold_count > 0:
            self.cost.functional_instructions += machine.run(cold_count)
        if warm_count <= 0:
            return
        before = self._updates_now()
        self.cost.functional_instructions += machine.run(
            warm_count,
            **warming_hooks(context.hierarchy, context.predictor,
                            warm_cache, warm_predictor),
        )
        self._charge_updates(before)

    def _updates_now(self) -> tuple[int, int]:
        context = self.context
        return context.hierarchy.total_updates(), context.predictor.total_updates()

    def _charge_updates(self, before: tuple[int, int]) -> None:
        cache_now, predictor_now = self._updates_now()
        cache_delta = cache_now - before[0]
        predictor_delta = predictor_now - before[1]
        self.cost.cache_updates += cache_delta
        self.cost.predictor_updates += predictor_delta
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.count("warmup.cache_updates", cache_delta)
            telemetry.count("warmup.predictor_updates", predictor_delta)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
