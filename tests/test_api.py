"""Tests for the stable facade (repro.api) and the method registry."""

import pytest

from repro.api import _resolve_design, run_matrix, simulate, true_run
from repro.harness import SCALES
from repro.sampling import SampledRunResult, SamplingRegimen
from repro.warmup import (
    NoWarmup,
    method_factory,
    register_method,
    registered_method_names,
    resolve_method,
    unregister_method,
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

    def test_register_resolve_unregister_roundtrip(self):
        class Custom(NoWarmup):
            name = "CustomWarmup"

        register_method("CustomWarmup", Custom, aliases=("cw",))
        try:
            assert isinstance(resolve_method("CustomWarmup"), Custom)
            assert isinstance(resolve_method("cw"), Custom)
            assert "CustomWarmup" in registered_method_names()
        finally:
            unregister_method("CustomWarmup")
        assert "CustomWarmup" not in registered_method_names()
        with pytest.raises(ValueError):
            resolve_method("cw")  # aliases die with the registration

    def test_duplicate_registration_guarded(self):
        with pytest.raises(ValueError, match="already registered"):
            register_method("S$BP", NoWarmup)

    def test_replace_allows_override(self):
        original = method_factory("S$BP")
        register_method("S$BP", NoWarmup, replace=True)
        try:
            assert isinstance(resolve_method("S$BP"), NoWarmup)
        finally:
            register_method("S$BP", original, replace=True)

    def test_factory_must_be_callable(self):
        with pytest.raises(TypeError):
            register_method("NotCallable", object())


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
        result = simulate("twolf", method=NoWarmup(), design="ci")
        assert result.method_name == "None"

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
        assert repro.register_method is register_method
