"""repro — Reverse State Reconstruction for sampled microarchitectural
simulation.

A from-scratch reproduction of Bryan, Rosier & Conte, "Reverse State
Reconstruction for Sampled Microarchitectural Simulation" (ISPASS 2007):
a complete sampled-simulation stack (synthetic ISA, functional simulator,
cache hierarchy with buses, Gshare/BTB/RAS branch predictor, out-of-order
timing core, cluster sampling with confidence statistics) plus the paper's
warm-up methods — no warm-up, fixed period, SMARTS full functional
warming, MRRL, BLRL, SimPoint, and the contributed Reverse State
Reconstruction.

Quick start::

    from repro import (
        build_workload, SamplingRegimen, SampledSimulator,
        SmartsWarmup, ReverseStateReconstruction, measure_true_ipc,
    )

    workload = build_workload("gcc")
    regimen = SamplingRegimen(
        total_instructions=200_000, num_clusters=20, cluster_size=1_000,
    )
    simulator = SampledSimulator(workload, regimen)
    smarts = simulator.run(SmartsWarmup())
    rsr = simulator.run(ReverseStateReconstruction(fraction=0.2))
    print(smarts.estimate, rsr.estimate)

The package root exports the facade (:mod:`repro.api`) and the objects
the README and ``examples/`` import from it; everything else is imported
from its subpackage (``repro.cache``, ``repro.simpoint``, ...).
"""

from .isa import assemble
from .functional import Memory
from .workloads import build_workload
from .sampling import (
    SamplingRegimen,
    SampledSimulator,
    SimulatorConfigs,
    measure_true_ipc,
)
from .warmup import (
    NoWarmup,
    SmartsWarmup,
    MRRLWarmup,
    BLRLWarmup,
    paper_method_suite,
    resolve_method,
)
from .core import ReverseStateReconstruction
# The facade imports from the subpackages above, so it must come last.
from .api import simulate, run_matrix, true_run

__version__ = "1.0.0"

__all__ = [
    "assemble",
    "Memory",
    "build_workload",
    "SamplingRegimen",
    "SampledSimulator",
    "SimulatorConfigs",
    "measure_true_ipc",
    "NoWarmup",
    "SmartsWarmup",
    "MRRLWarmup",
    "BLRLWarmup",
    "paper_method_suite",
    "resolve_method",
    "ReverseStateReconstruction",
    "simulate",
    "run_matrix",
    "true_run",
]
