"""Tests for the live-points checkpoint library (paper reference [18])."""

import pytest

from repro.branch import BranchPredictor, PredictorConfig, paper_predictor_config
from repro.cache import MemoryHierarchy, paper_hierarchy_config
from repro.livepoints import LivePointLibrary
from repro.sampling import (
    SampledSimulator,
    SamplingRegimen,
    SimulatorConfigs,
)
from repro.timing import CoreConfig
from repro.warmup import SmartsWarmup, resolve_method
from repro.warmup.mrrl import MRRLWarmup
from repro.workloads import build_workload


REGIMEN = SamplingRegimen(60_000, 6, 800, seed=9)


def configs():
    return SimulatorConfigs(
        hierarchy=paper_hierarchy_config(scale=32),
        predictor=paper_predictor_config(scale=32),
    )


@pytest.fixture(scope="module")
def library():
    workload = build_workload("twolf")
    return LivePointLibrary.generate(workload, REGIMEN, configs())


def _cache_states(hierarchy):
    return [cache.export_state() for cache in hierarchy.caches()]


def _load_cache_states(hierarchy, states):
    for cache, state in zip(hierarchy.caches(), states):
        cache.load_state(state)


class TestStateSnapshots:
    def test_cache_roundtrip(self):
        hierarchy = MemoryHierarchy(paper_hierarchy_config(scale=32))
        for address in range(0, 64 * 64, 64):
            hierarchy.timed_access(address, False, False, 0)
        states = _cache_states(hierarchy)
        clone = MemoryHierarchy(paper_hierarchy_config(scale=32))
        _load_cache_states(clone, states)
        for cache_name in ("l1i", "l1d", "l2"):
            assert getattr(clone, cache_name).state_fingerprint() == \
                getattr(hierarchy, cache_name).state_fingerprint()

    def test_cache_geometry_mismatch_rejected(self):
        hierarchy = MemoryHierarchy(paper_hierarchy_config(scale=32))
        states = _cache_states(hierarchy)
        other = MemoryHierarchy(paper_hierarchy_config(scale=16))
        with pytest.raises(ValueError):
            _load_cache_states(other, states)

    def test_snapshot_is_deep(self):
        hierarchy = MemoryHierarchy(paper_hierarchy_config(scale=32))
        hierarchy.timed_access(0x1000, False, False, 0)
        states = _cache_states(hierarchy)
        fingerprint = hierarchy.l1d.state_fingerprint()
        # Mutating the cache after export must not change the snapshot.
        for address in range(0, 64 * 256, 64):
            hierarchy.timed_access(address, False, False, 0)
        clone = MemoryHierarchy(paper_hierarchy_config(scale=32))
        _load_cache_states(clone, states)
        assert clone.l1d.state_fingerprint() == fingerprint

    def test_predictor_roundtrip(self):
        from repro.isa import Instruction, Opcode
        predictor = BranchPredictor(PredictorConfig(256, 64, 8))
        inst = Instruction(Opcode.BNE, rs1=1, rs2=2, target=50)
        for _ in range(10):
            predictor.update(5, inst, True, 50)
        predictor.update(7, Instruction(Opcode.CALL, target=20), True, 20)
        state = predictor.export_state()
        clone = BranchPredictor(PredictorConfig(256, 64, 8))
        clone.load_state(state)
        assert clone.pht.counters == predictor.pht.counters
        assert clone.pht.history == predictor.pht.history
        assert clone.btb.tags == predictor.btb.tags
        assert clone.ras.contents_from_top() == \
            predictor.ras.contents_from_top()

    def test_predictor_geometry_mismatch_rejected(self):
        predictor = BranchPredictor(PredictorConfig(256, 64, 8))
        state = predictor.export_state()
        other = BranchPredictor(PredictorConfig(512, 64, 8))
        with pytest.raises(ValueError):
            other.load_state(state)


class TestLibrary:
    def test_generation_captures_all_points(self, library):
        assert len(library) == REGIMEN.num_clusters
        starts = [point.start for point in library.points]
        assert starts == REGIMEN.cluster_starts()
        assert library.generation_seconds > 0

    def test_replay_matches_direct_sampled_simulation(self, library):
        """Replaying live points must give the same cluster IPCs as a
        SMARTS-warmed sampled simulation (the library stores exactly the
        state that simulation would have at each cluster entry)."""
        workload = build_workload("twolf")
        direct = SampledSimulator(workload, REGIMEN, configs()).run(
            SmartsWarmup()
        )
        replay = library.replay()
        assert replay.cluster_ipcs == direct.cluster_ipcs

    def test_replay_is_much_faster_than_generation(self, library):
        replay = library.replay()
        assert replay.wall_seconds < library.generation_seconds

    def test_replay_supports_core_sweeps(self, library):
        wide = library.replay(CoreConfig(issue_width=4))
        narrow = library.replay(CoreConfig(issue_width=1))
        assert narrow.estimate.mean < wide.estimate.mean

    def test_replays_are_independent(self, library):
        first = library.replay()
        second = library.replay()
        assert first.cluster_ipcs == second.cluster_ipcs

    def test_result_api(self, library):
        replay = library.replay()
        assert replay.workload_name == "twolf"
        assert replay.passes_confidence_test(replay.estimate.mean)
        assert replay.relative_error(replay.estimate.mean) == 0.0


#: Generating methods whose libraries must replay their own sampled runs:
#: reconstruction with and without a partial log, full warming, and a
#: look-ahead method.
GENERATORS = {
    "R$BP (100%)": lambda: resolve_method("R$BP (100%)"),
    "R$BP (20%)": lambda: resolve_method("R$BP (20%)"),
    "S$BP": lambda: resolve_method("S$BP"),
    "MRRL (99%)": lambda: MRRLWarmup(0.99),
}


class TestGeneratingMethods:
    @pytest.mark.parametrize("program", ["twolf", "gcc"])
    @pytest.mark.parametrize("method_name", sorted(GENERATORS))
    def test_replay_matches_the_generating_run(self, program, method_name):
        """A library replays exactly the cluster IPCs of a sampled run
        with the method that generated it: generation is that run's own
        walk, captured after on-demand repairs are finalised."""
        workload = build_workload(program)
        make = GENERATORS[method_name]
        library = LivePointLibrary.generate(workload, REGIMEN, configs(),
                                            warmup=make())
        direct = SampledSimulator(workload, REGIMEN, configs()).run(make())
        assert library.replay().cluster_ipcs == direct.cluster_ipcs

    @pytest.mark.parametrize("program", ["gcc", "mcf"])
    @pytest.mark.parametrize("method_name", ["R$BP (20%)", "S$BP"])
    def test_replay_runs_the_detail_ramp(self, program, method_name):
        """At ``ci`` every cluster runs a 256-instruction detailed ramp
        before it is measured; a library generated with that ramp
        replays the cluster IPCs of ``repro.api.simulate`` exactly."""
        from repro.api import simulate
        from repro.harness.experiment import SCALES
        from repro.workloads import cached_workload

        ci = SCALES["ci"]
        assert ci.detail_ramp == 256
        library = LivePointLibrary.generate(
            cached_workload(program, mem_scale=ci.mem_scale), ci.regimen(),
            ci.configs(), warmup=resolve_method(method_name),
            warmup_prefix=ci.warmup_prefix, detail_ramp=ci.detail_ramp)
        assert {point.ramp for point in library.points} == {256}
        direct = simulate(program, method_name, "ci")
        assert library.replay().cluster_ipcs == direct.cluster_ipcs
