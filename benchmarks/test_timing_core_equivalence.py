"""Bench: the production engine against the reference engine.

Runs every registered warm-up method on every paper workload twice — on
the production engine and inside ``reference_engine()`` of
tests/oracle_engine.py, whose timing core is the step-driven loop and
whose cache access and predictor training are the straightforward
``enumerate`` scan and per-structure call chain — and
requires bit-identical per-cluster IPCs, `WarmupCost` ledgers,
estimates, and final cache and predictor statistics and state.  At the
``ci`` tier this is 16 methods x 9 programs; tests/test_timing_blocks.py
runs the gcc row in tier 1.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.harness import format_table
from repro.warmup import registered_method_names
from repro.workloads import PAPER_WORKLOADS, build_workload
from tests.oracle_engine import reference_engine, sampled_run_record

_ROWS: dict = {}


@pytest.mark.parametrize("name", PAPER_WORKLOADS)
def test_timing_core_matches_reference_engine(name, scale):
    workload = build_workload(name, mem_scale=scale.mem_scale)
    identical = 0
    for method_name in registered_method_names():
        with reference_engine():
            reference = sampled_run_record(workload, scale, method_name)
        production = sampled_run_record(workload, scale, method_name)
        for key in reference:
            assert reference[key] == production[key], (
                f"{name}/{method_name}: {key} diverges between the "
                f"reference and production engines")
        identical += 1
    _ROWS[name] = identical
    if len(_ROWS) == len(PAPER_WORKLOADS):
        emit("timing_core_equivalence", format_table(
            ["workload", "identical methods"],
            [[workload_name, str(count)] for workload_name, count
             in _ROWS.items()],
            title="Translated timing core vs reference engine"))
