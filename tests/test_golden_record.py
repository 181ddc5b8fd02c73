"""A golden record of what ``repro.api.simulate`` returns at ``ci``.

Every other equivalence test compares two engines of one commit, so a
change to code both engines share (``MemoryHierarchy``, the caches, the
sampling walk) would pass them all while moving every result.  This
test pins the results themselves: per program and method, the
per-cluster IPCs and the estimate as float reprs, and the
``WarmupCost``.  The fixture was written by the code it pins; rewrite
it only for a change meant to move results, with

    PYTHONPATH=src python -m tests.test_golden_record

and say in the change why the results moved.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import simulate

FIXTURE = Path(__file__).with_name("golden") / "simulate_ci.json"
PROGRAMS = ("gcc", "mcf", "parser", "art")
METHODS = ("R$BP (20%)", "S$BP")


def record(program: str, method: str) -> dict:
    """What the fixture holds for one ``simulate`` run at ``ci``."""
    result = simulate(program, method, "ci")
    estimate = result.estimate
    return {
        "cluster_ipcs": [repr(ipc) for ipc in result.cluster_ipcs],
        "cost": result.cost.as_dict(),
        "estimate": {
            "mean": repr(estimate.mean),
            "std_dev": repr(estimate.std_dev),
            "std_error": repr(estimate.std_error),
            "num_clusters": estimate.num_clusters,
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("program", PROGRAMS)
def test_simulate_matches_golden_record(program, method, golden):
    assert record(program, method) == golden[program][method]


def test_golden_record_covers_the_grid(golden):
    assert {program: sorted(runs) for program, runs in golden.items()} \
        == {program: sorted(METHODS) for program in PROGRAMS}


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(
        {program: {method: record(program, method) for method in METHODS}
         for program in PROGRAMS}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
