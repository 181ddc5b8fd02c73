"""Boundary PHT resolution equals the paper's on-demand walk.

`ReverseBranchReconstructor.prepare` resolves every PHT entry the log
mentions at the cluster boundary, from windows the source serves.  The
paper resolves each entry on demand instead, walking the log the first
time the cluster probes it, and the walk's post-cluster drain resolves
the rest.  The on-demand walk is kept as the oracle
`tests.oracle_engine.OnDemandPHT`, driven by `on_demand_engine()`, where
the step-driven timing core probes it before each conditional branch
predicts.

Both run the same sampled simulation, over the compacted log and the raw
oracle (tests/oracle_skiplog.py), at the paper's 20% and 40% tails and
the full log.  After every cluster the predictor state and the counter
writes must be identical, and at every boundary the inference census the
audit reports; so must the cluster IPCs and the `WarmupCost` ledger.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import pytest

from repro.core import ReverseStateReconstruction
from repro.harness import scale_from_env
from repro.sampling import SampledSimulator
from repro.workloads import build_workload
from tests.oracle_engine import on_demand_engine
from tests.oracle_skiplog import SOURCES

WORKLOADS = ("gcc", "mcf", "parser", "art")
FRACTIONS = (0.2, 0.4, 1.0)


def _boundaries(workload_name: str, fraction: float, source: str,
                engine) -> dict:
    """One serial run of R$BP (`fraction`) on `source`, with the census
    at every boundary and the predictor state and counter writes after
    every cluster."""
    scale = scale_from_env(default="ci")
    simulator = SampledSimulator(
        build_workload(workload_name, mem_scale=scale.mem_scale),
        scale.regimen(), scale.configs(),
        warmup_prefix=scale.warmup_prefix, detail_ramp=scale.detail_ramp)
    censuses, clusters = [], []
    with engine():
        pre_cluster = ReverseStateReconstruction.pre_cluster
        post_cluster = ReverseStateReconstruction.post_cluster

        def traced_pre_cluster(self):
            pre_cluster(self)
            censuses.append(self.audit_census())

        def traced_post_cluster(self):
            post_cluster(self)
            clusters.append((self.context.predictor.export_state(),
                             self._branch_reconstructor.counter_writes))

        with mock.patch.object(ReverseStateReconstruction, "pre_cluster",
                               traced_pre_cluster), \
                mock.patch.object(ReverseStateReconstruction,
                                  "post_cluster", traced_post_cluster):
            result = simulator.run(ReverseStateReconstruction(
                fraction, source=SOURCES[source]))
    return {"censuses": censuses, "clusters": clusters,
            "cluster_ipcs": result.cluster_ipcs,
            "cost": result.cost.as_dict()}


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_boundary_resolution_equals_on_demand_walk(workload_name, fraction,
                                                   source):
    boundary = _boundaries(workload_name, fraction, source,
                           contextlib.nullcontext)
    walk = _boundaries(workload_name, fraction, source, on_demand_engine)
    assert len(boundary["clusters"]) == len(boundary["censuses"]) > 1
    assert any(writes for _state, writes in boundary["clusters"])
    for index, (at_boundary, walked) in enumerate(zip(
            boundary["censuses"], walk["censuses"])):
        assert at_boundary == walked, f"census at boundary {index}"
    for index, (at_boundary, walked) in enumerate(zip(
            boundary["clusters"], walk["clusters"])):
        assert at_boundary[1] == walked[1], f"counter writes, cluster {index}"
        assert at_boundary[0] == walked[0], f"predictor, cluster {index}"
    assert boundary == walk
