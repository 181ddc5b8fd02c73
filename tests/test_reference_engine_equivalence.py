"""End to end: the production engine against the reference engine.

The reference engine (tests/oracle_engine.py) runs the functional
machine one `step()` at a time, the reverse cache and BTB scans one
reference at a time, and the PHT by the paper's on-demand walk, one
probe at a time; nothing about the simulated machine may change when
the production engine's translated blocks, vectorized scans and
boundary PHT step replace them.  These tests run complete sampled
simulations both ways — over the compacted skip log and the raw oracle
(tests/oracle_skiplog.py), serial and cluster-sharded, at the full log
(fraction 1.0, the running PHT windows) and at the paper's 20% tail
(windows indexed from the conditional stream, and the partial-tail
cache scan) — and require bit-identical per-cluster IPCs,
identical WarmupCost ledgers, identical IPC estimates, and identical
telemetry event counters (which subsume the gap-log record counts and
the reconstruction scan/apply/skip accounting).  One serial gcc run per
other way the skip hooks compile into translated blocks (S$BP, S$, SBP,
R$ (100%), RBP) is held to the same record.

The full nine-workload matrix runs in
`benchmarks/test_perf_vectorized_core.py`; this tier-1 subset keeps the
guarantee under the fast test suite.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.core import ReverseStateReconstruction
from repro.harness import scale_from_env
from repro.sampling import SampledSimulator
from repro.telemetry import Telemetry
from repro.warmup import resolve_method
from repro.workloads import build_workload
from tests.oracle_engine import reference_engine
from tests.oracle_skiplog import SOURCES

WORKLOADS = ("gcc", "mcf")
TOPOLOGIES = {"serial": None, "sharded": 2}
FRACTIONS = (1.0, 0.2)


def _run(workload_name: str, source: str, cluster_jobs, fraction: float,
         engine) -> dict:
    return _run_method(
        workload_name,
        lambda: ReverseStateReconstruction(fraction=fraction,
                                           source=SOURCES[source]),
        cluster_jobs, engine)


def _run_method(workload_name: str, make_method, cluster_jobs,
                engine) -> dict:
    scale = scale_from_env(default="ci")
    workload = build_workload(workload_name, mem_scale=scale.mem_scale)
    simulator = SampledSimulator(
        workload, scale.regimen(), scale.configs(),
        warmup_prefix=scale.warmup_prefix,
        detail_ramp=scale.detail_ramp,
        telemetry=Telemetry,
        cluster_jobs=cluster_jobs,
    )
    with engine():
        result = simulator.run(make_method())
    snapshot = result.extra["telemetry"]
    return {
        "cluster_ipcs": result.cluster_ipcs,
        "cost": result.cost.as_dict(),
        "estimate": result.estimate.mean,
        "counters": dict(snapshot.counters),
    }


@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_run_matches_reference_engine(workload_name, source, topology,
                                      fraction):
    cluster_jobs = TOPOLOGIES[topology]
    reference = _run(workload_name, source, cluster_jobs, fraction,
                     reference_engine)
    production = _run(workload_name, source, cluster_jobs, fraction,
                      contextlib.nullcontext)
    label = f"{workload_name}/{source}/{topology}/{fraction}"
    for key in ("cluster_ipcs", "cost", "estimate", "counters"):
        assert reference[key] == production[key], (
            f"{label}: {key} diverges between the reference and "
            f"production engines"
        )


#: One method per way the skip hooks compile into translated blocks:
#: functional warming of the caches, the predictor or both, and the
#: compacted log with its memory or its branch columns alone (the
#: parametrized test above covers R$BP).
EMITTER_VARIANTS = ("S$BP", "S$", "SBP", "R$ (100%)", "RBP")


@pytest.mark.parametrize("method", EMITTER_VARIANTS)
def test_emitter_variant_matches_reference_engine(method):
    reference = _run_method("gcc", lambda: resolve_method(method), None,
                            reference_engine)
    production = _run_method("gcc", lambda: resolve_method(method), None,
                             contextlib.nullcontext)
    for key in ("cluster_ipcs", "cost", "estimate", "counters"):
        assert reference[key] == production[key], (
            f"gcc/{method}: {key} diverges between the reference and "
            f"production engines"
        )


def test_leftover_engine_switch_changes_nothing(monkeypatch):
    """REPRO_BATCH_CORE no longer selects an engine: a run under a stale
    `0` is the production run, bit for bit."""
    monkeypatch.delenv("REPRO_BATCH_CORE", raising=False)
    production = _run("gcc", "compacted", None, 0.2, contextlib.nullcontext)
    monkeypatch.setenv("REPRO_BATCH_CORE", "0")
    stale = _run("gcc", "compacted", None, 0.2, contextlib.nullcontext)
    assert stale == production
