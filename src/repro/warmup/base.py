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
        method.pre_cluster()      # state repair at the boundary, if any
        <hot simulation of the cluster>
        method.post_cluster()     # discard per-gap data
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field

from ..branch import STRONG_NOT_TAKEN, STRONG_TAKEN
from ..cache import WritePolicy, mru_names
from ..functional.blocks import Emitter, mru_test
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


def _mru_read(address: str, ifetch: bool) -> list[str]:
    """A read or ifetch of `address`: count an L1 MRU hit, call
    ``warm_access`` otherwise."""
    cache = "I" if ifetch else "D"
    return [f"s = {address} // {cache}L",
            *mru_test(cache, f"s % {cache}N", "s", [],
                      [f"wa({address}, False, {ifetch})"])]


class _WarmEmitter(Emitter):
    """Functional warming, emitted into the translated blocks.

    A read or ifetch first tests the MRU line of its L1 set in the block
    and counts a hit.  A conditional branch trains the Gshare counter
    and, taken, the BTB entry in the block, with its pc and BTB slot
    constants, and counts both updates.  Under a write-through L1D over
    a write-back L2, a store whose line is MRU in its L1D and L2 sets
    counts both hits and marks the L2 line dirty in the block.
    Everything else (a non-MRU hit, a miss, any other store, any other
    transfer) calls ``warm_access`` or ``update``.  :meth:`fold` adds
    the counts to the caches' :class:`~repro.cache.CacheStats` and the
    predictor's update counters.

    The emitted code depends on the write policies and the BTB size,
    so each pair of policies and BTB size has a subclass of its own
    (:func:`_warm_emitter_class`), whose :attr:`kind` keys its block
    tables.
    """

    kind = "warm"
    params = ("wa", "up", "hc", "IR", "IL", "IN", "DR", "DL", "DN",
              "LR", "LL", "LN", "LD", "GP", "GC", "GM", "GH", "BT", "BX")
    #: Does a store that hits the MRU lines of its L1D and L2 sets run in
    #: the block?  Only under a write-through L1D and a write-back L2,
    #: where such a store changes the L2's dirty lines and nothing else.
    stores_in_line = False
    #: The BTB's index mask, which makes a branch's BTB slot a constant.
    btb_mask = 0

    def __init__(self, hierarchy, predictor) -> None:
        l1i, l1d, l2 = hierarchy.caches()
        pht, btb = predictor.pht, predictor.btb
        self._counted = (l1i.stats, l1d.stats, l2.stats, pht, btb)
        # L1I, L1D and L2 hits, then PHT and BTB updates.
        self._counts = [0] * 5
        super().__init__(hierarchy.warm_access, predictor.update,
                         self._counts, *mru_names(l1i), *mru_names(l1d),
                         *mru_names(l2), l2.dirty, pht, pht.counters,
                         pht._mask, pht._history_mask, btb.tags, btb.targets)

    @classmethod
    def memory(cls, pc, retired, address, ref) -> list[str]:
        if ref != 1:
            return _mru_read(address, ref == 2)
        store = f"wa({address}, True, False)"
        if not cls.stores_in_line:
            return [store]
        return [f"s = {address} // DL", f"t = {address} // LL",
                "if DR[s % DN][0] == s and LR[t % LN][0] == t:",
                "    hc[1] += 1; hc[2] += 1; LD.add(t)",
                "else:", f"    {store}"]

    @classmethod
    def transfer(cls, pc, next_pc, inst, taken, retired) -> list[str]:
        if not inst.is_cond_branch:
            return [f"up({pc}, I[{pc}], {taken}, {next_pc})"]
        # BranchPredictor.update's conditional rule, over the GHR read
        # once.
        lines = ["g = GP.history", f"j = ({pc} ^ g) & GM", "c = GC[j]"]
        if not taken:
            return lines + [f"if c > {STRONG_NOT_TAKEN}: GC[j] = c - 1",
                            "GP.history = (g << 1) & GH", "hc[3] += 1"]
        slot = pc & cls.btb_mask
        return lines + [f"if c < {STRONG_TAKEN}: GC[j] = c + 1",
                        "GP.history = (g << 1 | 1) & GH",
                        f"BT[{slot}] = {pc}; BX[{slot}] = {next_pc}",
                        "hc[3] += 1; hc[4] += 1"]

    def fold(self) -> None:
        counts = self._counts
        l1i, l1d, l2, pht, btb = self._counted
        l1i.hits += counts[0]
        l1d.hits += counts[1]
        l2.hits += counts[2]
        pht.updates += counts[3]
        btb.updates += counts[4]
        counts[:] = (0,) * 5


@functools.cache
def _warm_emitter_class(l1d_policy, l2_policy, btb_mask: int) -> type:
    """The :class:`_WarmEmitter` subclass for an L1D and L2 write policy
    and a BTB index mask: its :attr:`~_WarmEmitter.kind` names all
    three, so a block compiled for one hierarchy never runs for another."""
    return type("_WarmEmitter", (_WarmEmitter,), {
        "kind": ("warm", l1d_policy.name, l2_policy.name, btb_mask),
        "stores_in_line": (l1d_policy is WritePolicy.WTNA
                           and l2_policy is WritePolicy.WBWA),
        "btb_mask": btb_mask,
    })


def warming_hooks(hierarchy, predictor, warm_cache: bool = True,
                  warm_predictor: bool = True) -> dict:
    """Keyword arguments that make ``FunctionalMachine.run`` warm.

    The one construction of functional warming, shared by the warm-up
    methods' skips and the steady-state prefix: every data reference and
    every fetched instruction block goes through
    ``MemoryHierarchy.warm_access`` when `warm_cache`, and every control
    transfer trains ``BranchPredictor.update`` when `warm_predictor`.
    The callables hold bound methods only.

    The translated blocks make those calls directly, through the
    ``emitter``, with no hook frame in between and without writing the
    machine's ``pc`` and ``instructions_retired`` first: neither
    ``warm_access`` nor ``update`` reads the machine.  What changes
    nothing but counters and state the blocks can reach, they apply in
    line: a read or ifetch that hits its L1 set's MRU line, a
    conditional branch's training, and (write-through L1D, write-back
    L2) a store whose line is MRU in both its sets.  ``run`` adds the
    counts to the caches' and the predictor's counters before it returns
    or raises.  The callables serve the instructions ``run`` steps one
    at a time.

    The emitter binds, as they are when it is built, the caches' rows
    (``Cache.rows``), the L2's dirty set, the PHT's counters and the
    BTB's tag and target lists.  ``Cache.load_state`` keeps its rows'
    and dirty set's identity, but ``BranchPredictor.load_state`` (and
    so ``WarmState.restore``) replaces the predictor's lists: build the
    hooks for each run, and never keep them across one of those calls.
    Nothing a warm run calls rebinds them.
    """
    access, update = hierarchy.warm_access, predictor.update
    emitter = _warm_emitter_class(hierarchy.config.l1d.write_policy,
                                  hierarchy.config.l2.write_policy,
                                  predictor.btb._mask)
    hooks = {"ifetch_block_bytes": hierarchy.l1i.config.line_bytes,
             "emitter": emitter(hierarchy, predictor)}
    if warm_cache:

        def mem_hook(pc, next_pc, address, is_store, _access=access):
            _access(address, is_store, False)

        def ifetch_hook(address, _access=access):
            _access(address, False, True)

        hooks["mem_hook"] = mem_hook
        hooks["ifetch_hook"] = ifetch_hook
    if warm_predictor:

        def branch_hook(pc, next_pc, inst, taken, _update=update):
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

    def pre_cluster(self) -> None:
        """State repair immediately before the next cluster."""

    def post_cluster(self) -> None:
        """Discard any per-gap data (paper: logs are kept only for the
        current skip region)."""

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
