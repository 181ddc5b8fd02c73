"""Reverse State Reconstruction — the paper's primary contribution."""

from .source import (
    ReconstructionSource,
    make_source,
    tail_cutoff,
    REF_LOAD,
    REF_STORE,
    REF_INSTRUCTION,
    BR_COND,
    BR_CALL,
    BR_RET,
    BR_JUMP,
)
from .compaction import CompactedSkipRegionLog
from .counter_table import (
    CounterInferenceTable,
    Inference,
    default_table,
    prepend_outcome,
    resolve,
    MAX_HISTORY,
)
from .cache_reconstruct import (
    ReverseCacheReconstructor,
    CacheReconstructionStats,
)
from .ras_reconstruct import (
    reconstruct_ras_contents,
    reconstruct_ras_from_source,
)
from .branch_reconstruct import ReverseBranchReconstructor
from .method import ReverseStateReconstruction

__all__ = [
    "ReconstructionSource",
    "make_source",
    "tail_cutoff",
    "CompactedSkipRegionLog",
    "REF_LOAD",
    "REF_STORE",
    "REF_INSTRUCTION",
    "BR_COND",
    "BR_CALL",
    "BR_RET",
    "BR_JUMP",
    "CounterInferenceTable",
    "Inference",
    "default_table",
    "prepend_outcome",
    "resolve",
    "MAX_HISTORY",
    "ReverseCacheReconstructor",
    "CacheReconstructionStats",
    "reconstruct_ras_contents",
    "reconstruct_ras_from_source",
    "ReverseBranchReconstructor",
    "ReverseStateReconstruction",
]
