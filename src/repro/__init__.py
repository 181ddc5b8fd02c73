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
"""

from .isa import (
    Opcode,
    Instruction,
    Program,
    ProgramBuilder,
    assemble,
)
from .functional import FunctionalMachine, Memory
from .cache import (
    Cache,
    CacheConfig,
    MemoryHierarchy,
    HierarchyConfig,
    WritePolicy,
    paper_hierarchy_config,
)
from .branch import (
    BranchPredictor,
    PredictorConfig,
    paper_predictor_config,
)
from .timing import TimingSimulator, CoreConfig, paper_core_config
from .workloads import Workload, build_workload, available_workloads
from .sampling import (
    SamplingRegimen,
    SampleEstimate,
    cluster_estimate,
    relative_error,
    SampledSimulator,
    SampledRunResult,
    SimulatorConfigs,
    measure_true_ipc,
)
from .warmup import (
    WarmupMethod,
    WarmupCost,
    NoWarmup,
    FixedPeriodWarmup,
    SmartsWarmup,
    MRRLWarmup,
    BLRLWarmup,
    paper_method_suite,
    paper_method_names,
    register_method,
    unregister_method,
    resolve_method,
    registered_method_names,
)
from .livepoints import LivePointLibrary, LivePointReplayResult
from .cachesim import (
    ReferenceTrace,
    capture_trace,
    full_trace_miss_ratio,
    time_sampling_estimate,
    set_sampling_estimate,
)
from .core import (
    ReverseStateReconstruction,
    CompactedSkipRegionLog,
    ReconstructionSource,
    make_source,
    ReverseCacheReconstructor,
    ReverseBranchReconstructor,
    CounterInferenceTable,
    default_table,
)
# The facade imports from the subpackages above, so it must come last.
from .api import simulate, run_matrix, true_run

__version__ = "1.0.0"

__all__ = [
    "Opcode",
    "Instruction",
    "Program",
    "ProgramBuilder",
    "assemble",
    "FunctionalMachine",
    "Memory",
    "Cache",
    "CacheConfig",
    "MemoryHierarchy",
    "HierarchyConfig",
    "WritePolicy",
    "paper_hierarchy_config",
    "BranchPredictor",
    "PredictorConfig",
    "paper_predictor_config",
    "TimingSimulator",
    "CoreConfig",
    "paper_core_config",
    "Workload",
    "build_workload",
    "available_workloads",
    "SamplingRegimen",
    "SampleEstimate",
    "cluster_estimate",
    "relative_error",
    "SampledSimulator",
    "SampledRunResult",
    "SimulatorConfigs",
    "measure_true_ipc",
    "WarmupMethod",
    "WarmupCost",
    "NoWarmup",
    "FixedPeriodWarmup",
    "SmartsWarmup",
    "MRRLWarmup",
    "BLRLWarmup",
    "paper_method_suite",
    "paper_method_names",
    "register_method",
    "unregister_method",
    "resolve_method",
    "registered_method_names",
    "LivePointLibrary",
    "LivePointReplayResult",
    "ReferenceTrace",
    "capture_trace",
    "full_trace_miss_ratio",
    "time_sampling_estimate",
    "set_sampling_estimate",
    "ReverseStateReconstruction",
    "CompactedSkipRegionLog",
    "ReconstructionSource",
    "make_source",
    "ReverseCacheReconstructor",
    "ReverseBranchReconstructor",
    "CounterInferenceTable",
    "default_table",
    "simulate",
    "run_matrix",
    "true_run",
]
