"""Property tests: compacted-log reconstruction == raw oracle scan.

The compaction engine (repro/core/compaction.py) claims that every
ReconstructionSource query answers bit-identically to a reverse scan of
the raw stream, for every tail fraction, wherever the folds and trims fall and however much of the gap they
drop.  These tests drive randomized gap streams through the compacted
log and the raw oracle (tests/oracle_skiplog.py) via the same
hook calls and compare the *reconstructed state* — cache tags, LRU order
and dirty bits, GHR, BTB, RAS, and PHT counters, each rebuilt by the
production scans and by the reference engine's per-reference scans
(tests/oracle_engine.py) — plus the raw equality of the direct queries.
"""

import contextlib
import random
from dataclasses import replace
from operator import methodcaller

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.branch import BranchPredictor, PredictorConfig
from repro.cache import MemoryHierarchy, paper_hierarchy_config
from repro.cache.config import WritePolicy
from repro.core import (
    CompactedSkipRegionLog,
    ReverseBranchReconstructor,
    ReverseCacheReconstructor,
    ReverseStateReconstruction,
    default_table,
)
from repro.core.source import tail_cutoff
from repro.functional.memory import Memory
from repro.isa.assembler import assemble
from repro.sampling import SampledSimulator, SamplingRegimen
from repro.telemetry import Telemetry
from repro.workloads import build_workload
from repro.workloads.generator import Workload
from tests.cache_state import dirty_lines
from tests.oracle_engine import (
    OnDemandPHT, on_demand_engine, reference_engine, settle_pht,
)
from tests.oracle_skiplog import SOURCES, SkipRegionLog

FRACTIONS = (1.0, 0.8, 0.5, 0.33, 0.2)

PHT_ENTRIES = 64
BTB_ENTRIES = 16
RAS_ENTRIES = 4
HISTORY_BITS = PredictorConfig(PHT_ENTRIES, BTB_ENTRIES,
                               RAS_ENTRIES).history_bits


class FakeInst:
    def __init__(self, kind):
        self.is_cond_branch = kind == "cond"
        self.is_call = kind == "call"
        self.is_ret = kind == "ret"


INSTS = {kind: FakeInst(kind) for kind in ("cond", "call", "ret", "jump")}


def pht_windows(log, fraction):
    """`log`'s PHT windows of the `fraction` tail as plain lists."""
    entries, codes = log.pht_entry_windows(
        fraction, PHT_ENTRIES - 1, HISTORY_BITS, default_table().max_history)
    return entries.tolist(), codes.tolist()


def make_pair(fraction=1.0):
    """A raw and a compacted log sized to the shared test geometry.

    The compacted log is told the tail `fraction` its consumer reads, as
    make_source does, so its folds trim everything older.
    """
    raw = SkipRegionLog()
    compacted = CompactedSkipRegionLog(
        line_bytes=64,
        pht_entries=PHT_ENTRIES,
        history_bits=HISTORY_BITS,
        max_history=default_table().max_history,
        index_pht=fraction >= 1.0,
        store_conditionals=True,
        fraction=fraction,
    )
    return raw, compacted


def feed_random_stream(logs, rng, memory_events=600, branch_events=600,
                       fold=None, step=methodcaller("compact")):
    """Drive identical randomized hook calls into every log in `logs`.

    `fold(rng, index)`, when given, is asked after record `index` whether
    to call `step` on every log: compact() by default (a no-op on the raw
    one).
    """
    records = iter(range(memory_events + branch_events))

    def after_record():
        if fold is not None and fold(rng, next(records)):
            for log in logs:
                step(log)

    mem_hooks = [(log.make_mem_hook(), log.make_ifetch_hook())
                 for log in logs]
    branch_hooks = [log.make_branch_hook() for log in logs]
    # Small pools force heavy aliasing: repeated blocks, repeated branch
    # pcs mapping onto the same PHT/BTB entries.
    addresses = [0x1000 + 64 * rng.randrange(24) + rng.randrange(64)
                 for _ in range(memory_events)]
    for address in addresses:
        roll = rng.random()
        if roll < 0.3:
            for _mem, ifetch in mem_hooks:
                ifetch(address)
        else:
            is_store = roll < 0.6
            for mem, _ifetch in mem_hooks:
                mem(0, 0, address, is_store)
        after_record()
    depth = 0
    for _ in range(branch_events):
        roll = rng.random()
        if roll < 0.5:
            kind, taken = "cond", rng.random() < 0.5
        elif roll < 0.7:
            kind, taken = "call", True
        elif roll < 0.9:
            # Orphan returns (popping past every logged call) included.
            kind, taken = "ret", True
        else:
            kind, taken = "jump", rng.random() < 0.9
        if kind == "call":
            depth += 1
        elif kind == "ret":
            depth = max(0, depth - 1)
        pc = 0x4000 + rng.randrange(40)
        target = 0x8000 + rng.randrange(40)
        for hook in branch_hooks:
            hook(pc, target, INSTS[kind], taken)
        after_record()
    return logs


#: When the compacted side folds: never (queries fold everything at
#: once), after every record, at random intervals, or at long ones.  On
#: the 3600-record streams below the long interval ends the stream with a
#: fold that shifts more than a full window of outcomes into PHT entries
#: already filled by the previous fold.
#: The reverse scans of the reference engine (tests/oracle_engine.py)
#: and of production.
ENGINES = (reference_engine, contextlib.nullcontext)

FOLD_SCHEDULES = {
    "never": None,
    "every_record": lambda rng, index: True,
    "random": lambda rng, index: rng.random() < 0.03,
    "every_1800": lambda rng, index: index % 1800 == 1799,
}


def cache_state(cache):
    """Fingerprint plus the dirty lines — the full visible state."""
    return cache.state_fingerprint(), dirty_lines(cache)


def predictor_state(predictor):
    return (
        tuple(predictor.pht.counters),
        predictor.pht.history,
        tuple(predictor.btb.tags),
        tuple(predictor.btb.targets),
        tuple(predictor.ras.contents_from_top()),
    )


class TestCacheEquivalence:
    @pytest.mark.parametrize("fraction", FRACTIONS)
    @pytest.mark.parametrize("l1d_policy", [WritePolicy.WTNA,
                                            WritePolicy.WBWA])
    def test_reconstructed_hierarchy_identical(self, fraction, l1d_policy):
        rng = random.Random(int(fraction * 100)
                            + (1000 if l1d_policy is WritePolicy.WBWA else 0))
        raw, compacted = feed_random_stream(make_pair(), rng)
        config = paper_hierarchy_config(scale=64)
        config = replace(config, l1d=replace(config.l1d,
                                             write_policy=l1d_policy))
        states = []
        for source in (raw, compacted):
            for engine in ENGINES:
                hierarchy = MemoryHierarchy(config)
                with engine():
                    ReverseCacheReconstructor(hierarchy).reconstruct(
                        source, fraction)
                states.append(tuple(
                    cache_state(level)
                    for level in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)
                ))
        assert all(state == states[0] for state in states)

    def test_compacted_scans_fewer_references(self):
        rng = random.Random(7)
        raw, compacted = feed_random_stream(make_pair(), rng)
        config = paper_hierarchy_config(scale=64)
        stats = []
        for source in (raw, compacted):
            reconstructor = ReverseCacheReconstructor(MemoryHierarchy(config))
            stats.append(reconstructor.reconstruct(source, 1.0))
        assert stats[1].scanned < stats[0].scanned
        assert stats[1].applied == stats[0].applied


class TestBranchEquivalence:
    @pytest.mark.parametrize("fraction", FRACTIONS)
    def test_direct_queries_identical(self, fraction):
        rng = random.Random(int(fraction * 100))
        raw, compacted = feed_random_stream(make_pair(), rng)
        assert (raw.recent_conditional_outcomes(fraction, HISTORY_BITS)
                == compacted.recent_conditional_outcomes(fraction,
                                                         HISTORY_BITS))
        for capacity in (1, RAS_ENTRIES, 64):
            assert (raw.ras_tail_contents(fraction, capacity)
                    == compacted.ras_tail_contents(fraction, capacity))
        assert pht_windows(raw, fraction) == pht_windows(compacted, fraction)

    @pytest.mark.parametrize("fraction", FRACTIONS)
    @pytest.mark.parametrize("mode", ["eager", "on_demand"])
    def test_reconstructed_predictor_identical(self, fraction, mode):
        """Both sources, at the boundary and by the reference engine's
        on-demand walk drained with no probe ("eager"), or by the walk
        driven by a hot cluster's probes and then drained
        ("on_demand")."""
        rng = random.Random(int(fraction * 100)
                            + (1000 if mode == "eager" else 0))
        raw, compacted = feed_random_stream(make_pair(), rng)
        outcomes = []
        if mode == "on_demand":
            probes = [rng.randrange(PHT_ENTRIES) for _ in range(40)]
            outcomes.append(reconstructed_predictor(compacted, fraction))
            for source in (raw, compacted):
                outcomes.append(
                    reconstructed_predictor(source, fraction, probes))
        else:
            for source in (raw, compacted):
                for engine in ENGINES:
                    predictor = BranchPredictor(PredictorConfig(
                        PHT_ENTRIES, BTB_ENTRIES, RAS_ENTRIES))
                    reconstructor = ReverseBranchReconstructor(predictor)
                    with engine():
                        reconstructor.prepare(source, fraction)
                        settle_pht(predictor)
                    outcomes.append((predictor_state(predictor),
                                     reconstructor.counter_writes))
        assert all(outcome == outcomes[0] for outcome in outcomes)


def reconstructed_hierarchy(source, fraction):
    hierarchy = MemoryHierarchy(paper_hierarchy_config(scale=64))
    ReverseCacheReconstructor(hierarchy).reconstruct(source, fraction)
    return tuple(cache_state(level)
                 for level in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2))


def reconstructed_predictor(source, fraction, probes=None):
    """The predictor `source`'s tail reconstructs at the boundary, or,
    given `probes` (PHT entries), by the paper's on-demand walk: those
    probes in order, then the post-cluster drain."""
    predictor = BranchPredictor(
        PredictorConfig(PHT_ENTRIES, BTB_ENTRIES, RAS_ENTRIES))
    reconstructor = ReverseBranchReconstructor(predictor)
    if probes is None:
        reconstructor.prepare(source, fraction)
    else:
        with on_demand_engine():
            reconstructor.prepare(source, fraction)
            walk = OnDemandPHT(reconstructor, source, fraction)
            for entry in probes:
                walk.demand(entry)
            walk.drain()
    return predictor_state(predictor), reconstructor.counter_writes


class TestScanAccounting:
    """The production scans account for their work exactly as the
    reference engine's per-reference scans do: the cache pass's
    scanned/applied/skipped counts and the BTB claims scanned feed the
    WarmupCost ledger and the telemetry counters."""

    @pytest.mark.parametrize("source", ["raw", "compacted"])
    @pytest.mark.parametrize("fraction", [1.0, 0.5, 0.2])
    def test_cache_stats_match_reference_engine(self, fraction, source):
        rng = random.Random(int(fraction * 100) + 7)
        logs = dict(zip(("raw", "compacted"),
                        feed_random_stream(make_pair(fraction), rng)))
        config = paper_hierarchy_config(scale=64)
        outcomes = []
        for engine in ENGINES:
            hierarchy = MemoryHierarchy(config)
            with engine():
                stats = ReverseCacheReconstructor(hierarchy).reconstruct(
                    logs[source], fraction)
            outcomes.append((stats, tuple(
                cache_state(level)
                for level in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)
            )))
        assert outcomes[0] == outcomes[1]
        stats = outcomes[0][0]
        assert stats.scanned >= stats.applied > 0

    @pytest.mark.parametrize("source", ["raw", "compacted"])
    @pytest.mark.parametrize("fraction", [1.0, 0.2])
    def test_btb_claims_match_reference_engine(self, fraction, source):
        rng = random.Random(int(fraction * 100) + 11)
        logs = dict(zip(("raw", "compacted"),
                        feed_random_stream(make_pair(fraction), rng)))
        outcomes = []
        for engine in ENGINES:
            predictor = BranchPredictor(
                PredictorConfig(PHT_ENTRIES, BTB_ENTRIES, RAS_ENTRIES))
            reconstructor = ReverseBranchReconstructor(predictor)
            with engine():
                scanned = reconstructor._rebuild_btb(logs[source], fraction)
            btb = predictor.btb
            outcomes.append((scanned, btb.updates, tuple(btb.tags),
                             tuple(btb.targets), tuple(btb.reconstructed)))
        assert outcomes[0] == outcomes[1]
        scanned, updates = outcomes[0][:2]
        assert scanned >= updates > 0


class TestFolding:
    """The compacted side knows the method's fraction and folds anywhere."""

    @pytest.mark.parametrize("schedule", sorted(FOLD_SCHEDULES))
    @pytest.mark.parametrize("fraction", FRACTIONS)
    def test_direct_queries_identical(self, fraction, schedule):
        rng = random.Random(int(fraction * 100) + len(schedule))
        raw, compacted = feed_random_stream(
            make_pair(fraction), rng, branch_events=3000,
            fold=FOLD_SCHEDULES[schedule])
        assert raw.record_count() == compacted.record_count()
        assert (raw.recent_conditional_outcomes(fraction, HISTORY_BITS)
                == compacted.recent_conditional_outcomes(fraction,
                                                         HISTORY_BITS))
        for capacity in (1, RAS_ENTRIES, 64):
            assert (raw.ras_tail_contents(fraction, capacity)
                    == compacted.ras_tail_contents(fraction, capacity))
        assert pht_windows(raw, fraction) == pht_windows(compacted, fraction)

    @pytest.mark.parametrize("mode", ["eager", "on_demand"])
    @pytest.mark.parametrize("schedule", sorted(FOLD_SCHEDULES))
    @pytest.mark.parametrize("fraction", FRACTIONS)
    def test_reconstructed_state_identical(self, fraction, schedule, mode):
        """Both sources reconstruct the same state at the boundary
        ("eager"), and the on-demand walk driven by a cluster's probes
        reaches that state from either source ("on_demand")."""
        rng = random.Random(int(fraction * 100) + 7 * len(schedule)
                            + (1000 if mode == "eager" else 0))
        raw, compacted = feed_random_stream(
            make_pair(fraction), rng, branch_events=3000,
            fold=FOLD_SCHEDULES[schedule])
        assert (reconstructed_hierarchy(raw, fraction)
                == reconstructed_hierarchy(compacted, fraction))
        probes = [rng.randrange(PHT_ENTRIES) for _ in range(40)]
        boundary = reconstructed_predictor(compacted, fraction)
        if mode == "eager":
            assert reconstructed_predictor(raw, fraction) == boundary
        else:
            for source in (raw, compacted):
                assert reconstructed_predictor(source, fraction, probes) \
                    == boundary

    @pytest.mark.parametrize("fraction", FRACTIONS)
    @pytest.mark.parametrize("schedule", sorted(FOLD_SCHEDULES))
    def test_pht_windows_match_reverse_walk(self, schedule, fraction):
        """Each entry's window holds exactly its newest `max_history`
        outcomes of the raw conditional stream, the GHR zeroed at the
        tail start, wherever folds fell: the running index at fraction
        1.0, the indexed conditional stream below it."""
        raw, compacted = feed_random_stream(
            make_pair(), random.Random(len(schedule)), branch_events=3000,
            fold=FOLD_SCHEDULES[schedule])
        depth = default_table().max_history
        expected = {}
        for pc, taken, ghr in reversed(raw.conditional_history(
                fraction, HISTORY_BITS)):
            entry = (pc ^ ghr) & (PHT_ENTRIES - 1)
            length, bits = expected.get(entry, (0, 0))
            if length < depth:
                expected[entry] = (length + 1, bits | (taken << length))
        entries = sorted(expected)
        assert pht_windows(compacted, fraction) == (
            entries, [expected[entry][0] << depth | expected[entry][1]
                      for entry in entries])

    @pytest.mark.parametrize("fraction", FRACTIONS)
    def test_oldest_tail_record_survives_every_fold(self, fraction):
        """With no aliasing every record survives dedup, so the direct
        queries equal the raw ones element for element; folding after
        every record puts the final cutoff on a fold boundary."""
        raw, compacted = make_pair(fraction)
        hooks = [(log.make_mem_hook(), log.make_ifetch_hook(),
                  log.make_branch_hook()) for log in (raw, compacted)]
        for position in range(90):
            for mem, ifetch, branch in hooks:
                if position % 3 == 0:
                    ifetch(0x100000 + 64 * position)
                else:
                    mem(0, 0, 0x200000 + 64 * position, position % 3 == 1)
                kind = ("call", "jump", "cond")[position % 3]
                branch(0x4000 + position, 0x8000 + position, INSTS[kind],
                       True)
            compacted.compact()
        for query in ("memory_reverse_arrays", "btb_claims_arrays"):
            raw_columns = getattr(raw, query)(fraction)
            compacted_columns = getattr(compacted, query)(fraction)
            assert ([column.tolist() for column in raw_columns]
                    == [column.tolist() for column in compacted_columns])
        assert (list(raw.iter_memory_reverse(fraction))
                == list(zip(*(column.tolist() for column in
                              compacted.memory_reverse_arrays(fraction)))))
        assert (list(raw.iter_btb_claims_reverse(fraction))
                == list(zip(*(column.tolist() for column in
                              compacted.btb_claims_arrays(fraction)))))
        assert (raw.ras_tail_contents(fraction, 100)
                == compacted.ras_tail_contents(fraction, 100))
        assert pht_windows(raw, fraction) == pht_windows(compacted, fraction)

    def test_wider_tail_than_trimmed_is_refused(self):
        _raw, compacted = feed_random_stream(make_pair(0.2),
                                             random.Random(5))
        with pytest.raises(ValueError, match="0.5 tail"):
            compacted.memory_reverse_arrays(0.5)

    @given(count=st.integers(min_value=0, max_value=10 ** 9),
           fraction=st.floats(min_value=0.0, max_value=1.0,
                              exclude_min=True, allow_nan=False))
    def test_tail_cutoff_never_decreases(self, count, fraction):
        """The fold's trim is exact only because of this property: a
        record below today's cutoff stays below every later one."""
        assert tail_cutoff(count + 1, fraction) >= tail_cutoff(count,
                                                               fraction)


#: Trim-only schedules: the skip's trim after every k-th record.
TRIM_EVERY = (1, 7, 100, 1000)
TRIM_FRACTIONS = (1.0, 0.4, 0.2)


def every(k):
    return lambda rng, index: index % k == k - 1


def compacted_queries(log, fraction):
    """Every direct query of a compacted log, as plain values."""
    return (
        [column.tolist() for column in log.memory_reverse_arrays(fraction)],
        [column.tolist() for column in log.btb_claims_arrays(fraction)],
        log.recent_conditional_outcomes(fraction, HISTORY_BITS),
        [log.ras_tail_contents(fraction, capacity)
         for capacity in (1, RAS_ENTRIES, 64)],
        pht_windows(log, fraction),
    )


def assert_tail_retained(log, fraction):
    """No pending or retained record lies below its stream's cutoff."""
    memory_cutoff = tail_cutoff(log.memory_record_count(), fraction)
    branch_cutoff = tail_cutoff(log.branch_record_count(), fraction)
    if log._kinds:
        assert log._mem_base >= memory_cutoff
    if log._branch_codes:
        assert log._branch_base >= branch_cutoff
    assert (log._memory[0] >= memory_cutoff).all()
    for columns in (log._btb, log._outcomes, log._conditionals):
        assert (columns[0] >= branch_cutoff).all()
    assert all(seq >= branch_cutoff for seq, _pc in log._ras_stack)


class TestTrimming:
    """The skip trims instead of folding: at a partial fraction a trim
    drops what no tail can reach and dedups nothing; at fraction 1.0 it
    folds.  Either way every query answers as folding at the same points
    does, and as the raw oracle does."""

    @pytest.mark.parametrize("k", TRIM_EVERY)
    @pytest.mark.parametrize("fraction", TRIM_FRACTIONS)
    def test_queries_match_folds_and_oracle(self, fraction, k):
        rng = random.Random(int(fraction * 100) + k)
        raw, trimmed = make_pair(fraction)
        _raw, folded = make_pair(fraction)

        def step(log):
            if log is trimmed:
                log.trim()
            else:
                log.compact()

        feed_random_stream((raw, trimmed, folded), rng, branch_events=3000,
                           fold=every(k), step=step)
        assert (raw.record_count() == trimmed.record_count()
                == folded.record_count())
        assert (compacted_queries(trimmed, fraction)
                == compacted_queries(folded, fraction))
        assert (raw.recent_conditional_outcomes(fraction, HISTORY_BITS)
                == trimmed.recent_conditional_outcomes(fraction,
                                                       HISTORY_BITS))
        for capacity in (1, RAS_ENTRIES, 64):
            assert (raw.ras_tail_contents(fraction, capacity)
                    == trimmed.ras_tail_contents(fraction, capacity))
        assert pht_windows(raw, fraction) == pht_windows(trimmed, fraction)
        assert (reconstructed_hierarchy(raw, fraction)
                == reconstructed_hierarchy(trimmed, fraction))
        assert (reconstructed_predictor(raw, fraction)
                == reconstructed_predictor(trimmed, fraction))

    @pytest.mark.parametrize("queries", [False, True])
    @pytest.mark.parametrize("k", TRIM_EVERY)
    @pytest.mark.parametrize("fraction", TRIM_FRACTIONS)
    def test_trim_retains_only_the_tail(self, fraction, k, queries):
        """Checked after every trim.  With `queries`, a query folds
        before every third trim, so that trim cuts the retained
        structures rather than the pending lists."""
        _raw, compacted = make_pair(fraction)
        trims = 0

        def trim_and_check(log):
            nonlocal trims
            if queries and trims % 3 == 2:
                log.memory_reverse_arrays(fraction)
            log.trim()
            assert_tail_retained(log, fraction)
            if fraction < 1.0 and not queries:
                # A trim keeps the tail raw: exactly its records remain.
                memory = log.memory_record_count()
                branches = log.branch_record_count()
                assert log.stored_records() == (
                    memory - tail_cutoff(memory, fraction)
                    + branches - tail_cutoff(branches, fraction))
            trims += 1

        feed_random_stream((compacted,), random.Random(k),
                           branch_events=3000, fold=every(k),
                           step=trim_and_check)
        assert trims == 3600 // k


class TestRasEdgeCases:
    def test_deep_nesting_and_orphans(self):
        """Many randomized call/return shapes across every cutoff."""
        for seed in range(20):
            rng = random.Random(seed)
            raw, compacted = make_pair()
            hooks = [raw.make_branch_hook(), compacted.make_branch_hook()]
            for position in range(80):
                kind = rng.choice(("call", "call", "ret", "cond", "jump"))
                for hook in hooks:
                    hook(0x4000 + position, 0x8000 + position,
                         INSTS[kind], True)
            for fraction in (1.0, 0.9, 0.7, 0.5, 0.3, 0.1, 0.05):
                for capacity in (1, 2, 4, 8, 100):
                    assert (raw.ras_tail_contents(fraction, capacity)
                            == compacted.ras_tail_contents(fraction,
                                                           capacity)), (
                        f"seed={seed} fraction={fraction} "
                        f"capacity={capacity}")


class TestEndToEndEquivalence:
    REGIMEN = SamplingRegimen(total_instructions=24_000, num_clusters=4,
                              cluster_size=600, seed=5)

    @pytest.mark.parametrize("workload_name", ["gcc", "twolf", "mcf"])
    @pytest.mark.parametrize("fraction", [1.0, 0.4])
    def test_sampled_run_identical(self, fraction, workload_name):
        simulator = SampledSimulator(build_workload(workload_name),
                                     self.REGIMEN)
        results = [
            simulator.run(ReverseStateReconstruction(
                fraction, source=SOURCES[kind]))
            for kind in ("raw", "compacted")
        ]
        assert results[0].cluster_ipcs == results[1].cluster_ipcs
        assert results[0].cost.as_dict() == results[1].cost.as_dict()

    def test_compacted_stores_fewer_records(self):
        simulator = SampledSimulator(build_workload("gcc"), self.REGIMEN)
        for fraction in (1.0, 0.2):
            peaks = {}
            for kind in ("raw", "compacted"):
                method = ReverseStateReconstruction(fraction,
                                                    source=SOURCES[kind])
                simulator.run(method)
                peaks[kind] = method.log.peak_stored_records
            assert 0 < peaks["compacted"] < peaks["raw"], fraction


#: A loop whose loads and stores walk downwards from address -64, i.e.
#: through effective addresses at or above 2**63.
HIGH_HALF_PROGRAM = """
start: li r1, 0
       li r2, -64
loop:  addi r1, r1, 1
       store r1, r2, 0
       load r3, r2, 8
       addi r2, r2, -64
       bne r1, r0, loop
       halt
"""


class TestHighHalfAddresses:
    @pytest.mark.parametrize("source", ["raw", "compacted"])
    @pytest.mark.parametrize("fraction", [0.2, 1.0])
    def test_matches_reference_engine(self, fraction, source):
        workload = Workload("high-half", assemble(HIGH_HALF_PROGRAM),
                            Memory())
        regimen = SamplingRegimen(20_000, 4, 200, seed=1)
        results = []
        for engine in ENGINES:
            with engine():
                result = SampledSimulator(workload, regimen).run(
                    ReverseStateReconstruction(fraction,
                                               source=SOURCES[source]))
            results.append((result.cluster_ipcs, result.cost.as_dict()))
        assert results[0] == results[1]


class TestSourceLifecycle:
    def test_clear_preserves_hook_bindings(self):
        """clear() must empty the captured containers in place — hooks
        installed before a clear must keep feeding the same source."""
        _raw, compacted = make_pair()
        mem = compacted.make_mem_hook()
        branch = compacted.make_branch_hook()
        mem(0, 0, 0x1000, False)
        branch(0x4000, 0x8000, INSTS["cond"], True)
        compacted.clear()
        assert compacted.record_count() == 0
        assert compacted.stored_records() == 0
        mem(0, 0, 0x2000, True)
        branch(0x4004, 0x8004, INSTS["call"], True)
        assert compacted.memory_record_count() == 1
        assert compacted.branch_record_count() == 1
        assert len(compacted.memory_reverse_arrays(1.0)[0]) == 1
        assert compacted.ras_tail_contents(1.0, 4) == [0x4005]

    def test_peaks_updated_at_clear(self):
        _raw, compacted = feed_random_stream(
            make_pair(), random.Random(3), memory_events=200,
            branch_events=200)
        expected = compacted.stored_records()
        compacted.clear()
        assert compacted.peak_stored_records == expected
        assert compacted.peak_stored_bytes > 0

    def test_peak_counts_records_pending_between_folds(self):
        """A gap that piles up more pending records than it retains
        reports the pending pile as its peak, not the folded survivors."""
        telemetry = Telemetry()
        _raw, compacted = make_pair()
        compacted.telemetry = telemetry
        mem = compacted.make_mem_hook()
        for _ in range(1000):
            mem(0, 0, 0x1000, False)
        compacted.compact()
        assert compacted.stored_records() == 1
        assert compacted.peak_stored_records >= 1000
        compacted.clear()
        snapshot = telemetry.snapshot()
        assert snapshot.counters["log.stored_records"] == 1
        assert snapshot.histograms["log.gap_stored_records"].max >= 1000
