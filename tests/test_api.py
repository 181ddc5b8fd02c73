"""Tests for the stable facade (repro.api) and the method registry."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.api import _resolve_design, run_matrix, simulate, true_run
from repro.harness import SCALES
from repro.sampling import SampledRunResult, SamplingRegimen
from repro.warmup import (
    NoWarmup,
    method_factory,
    paper_method_names,
    registered_method_names,
    resolve_method,
)


class TestRegistry:
    def test_table2_names_registered(self):
        names = registered_method_names()
        for expected in ("None", "S$BP", "R$BP (100%)", "FP (20%)", "RBP"):
            assert expected in names

    def test_resolve_builds_fresh_instances(self):
        first = resolve_method("S$BP")
        second = resolve_method("S$BP")
        assert first is not second
        assert first.name == second.name == "S$BP"

    def test_canonical_names_case_insensitive(self):
        assert resolve_method("s$bp").name == "S$BP"
        assert resolve_method("  r$bp (100%) ").name == "R$BP (100%)"

    def test_headline_aliases(self):
        assert resolve_method("rsr").name == "R$BP (100%)"
        assert resolve_method("RSR").name == "R$BP (100%)"
        assert resolve_method("smarts").name == "S$BP"

    def test_unknown_name_readable_error(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_method("bogus")
        message = str(excinfo.value)
        assert "unknown method 'bogus'" in message
        assert "S$BP" in message  # the known names are listed

    def test_registry_is_the_table2_suite(self):
        # Exactly the sixteen Table 2 configurations: nothing is added
        # at run time, so every process sees the same names.
        names = paper_method_names()
        assert len(names) == 16
        assert registered_method_names() == sorted(names)
        for name in names:
            assert resolve_method(name).name == name

    def test_aliases_share_their_targets_factory(self):
        assert method_factory("rsr") is method_factory("R$BP (100%)")
        assert method_factory("smarts") is method_factory("S$BP")

    def test_spawned_worker_resolves_the_same_names(self):
        # A spawn-started worker rebuilds the registry from the suite
        # catalogue; it must agree with the parent, aliases included.
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            names = pool.submit(registered_method_names).result(timeout=120)
            method = pool.submit(resolve_method, "rsr").result(timeout=120)
        assert names == registered_method_names()
        assert method.name == "R$BP (100%)"


class TestResolveDesign:
    def test_preset_names(self):
        for name, scale in SCALES.items():
            assert _resolve_design(name) is scale

    def test_unknown_preset_readable_error(self):
        with pytest.raises(ValueError, match="unknown design 'huge'"):
            _resolve_design("huge")

    def test_instances_pass_through(self):
        scale = SCALES["ci"]
        assert _resolve_design(scale) is scale
        regimen = SamplingRegimen(
            total_instructions=10_000, num_clusters=2, cluster_size=100,
        )
        assert _resolve_design(regimen) is regimen

    def test_none_uses_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        assert _resolve_design(None) is SCALES["ci"]

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            _resolve_design(42)


class TestSimulate:
    def test_simulate_by_names(self):
        result = simulate("twolf", method="None", design="ci")
        assert isinstance(result, SampledRunResult)
        assert result.method_name == "None"
        assert result.estimate.mean > 0

    def test_simulate_accepts_method_instance(self):
        # A method outside the Table 2 suite has no name to resolve: it
        # is passed as an instance.
        class Custom(NoWarmup):
            name = "CustomWarmup"

        result = simulate("twolf", method=Custom(), design="ci")
        assert result.method_name == "CustomWarmup"

    def test_simulate_matches_direct_run(self):
        from repro.sampling import SampledSimulator
        from repro.workloads import build_workload

        scale = SCALES["ci"]
        direct = SampledSimulator(
            build_workload("twolf", mem_scale=scale.mem_scale),
            scale.regimen(), scale.configs(),
            warmup_prefix=scale.warmup_prefix,
            detail_ramp=scale.detail_ramp,
        ).run(resolve_method("rsr"))
        facade = simulate("twolf", method="rsr", design="ci")
        assert facade.cluster_ipcs == direct.cluster_ipcs

    def test_simulate_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            simulate("twolf", method="bogus", design="ci")

    def test_simulate_bare_regimen(self):
        regimen = SamplingRegimen(
            total_instructions=12_000, num_clusters=3, cluster_size=200,
            seed=7,
        )
        result = simulate("twolf", method="None", design=regimen)
        assert len(result.cluster_ipcs) == 3


class TestMatrixAndTrueRun:
    def test_run_matrix_tiny_grid(self):
        grid = run_matrix(
            methods=["None", "rsr"], workloads=["twolf"], design="ci",
            jobs=1, cache="off",
        )
        assert set(grid) == {"twolf"}
        outcomes = grid["twolf"].outcomes
        # Alias resolves to its canonical Table 2 name in the results.
        assert set(outcomes) == {"None", "R$BP (100%)"}
        for outcome in outcomes.values():
            assert outcome.relative_error >= 0

    def test_run_matrix_validates_before_launch(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_matrix(methods=["bogus"], workloads=["twolf"], design="ci")

    def test_run_matrix_needs_scale_design(self):
        regimen = SamplingRegimen(
            total_instructions=10_000, num_clusters=2, cluster_size=100,
        )
        with pytest.raises(TypeError):
            run_matrix(methods=["None"], design=regimen)

    def test_true_run_needs_scale_design(self):
        regimen = SamplingRegimen(
            total_instructions=10_000, num_clusters=2, cluster_size=100,
        )
        with pytest.raises(TypeError):
            true_run("twolf", design=regimen)

    def test_true_run_matches_harness(self):
        from repro.harness import true_run_for

        assert true_run("twolf", design="ci") is true_run_for(
            "twolf", SCALES["ci"]
        )


class TestTopLevelExports:
    def test_facade_importable_from_package_root(self):
        import repro

        assert repro.simulate is simulate
        assert repro.run_matrix is run_matrix
        assert repro.resolve_method is resolve_method
