"""SimPoint: BBV profiling, k-means, and simulation-point selection."""

from .bbv import BBVProfile, profile_bbv
from .kmeans import (
    KMeansResult,
    kmeans,
    random_projection,
    DEFAULT_PROJECTED_DIMS,
)
from .simpoint import (
    SimPoint,
    SimPointSelection,
    SimPointRunResult,
    select_simpoints,
    run_simpoints,
)

__all__ = [
    "BBVProfile",
    "profile_bbv",
    "KMeansResult",
    "kmeans",
    "random_projection",
    "DEFAULT_PROJECTED_DIMS",
    "SimPoint",
    "SimPointSelection",
    "SimPointRunResult",
    "select_simpoints",
    "run_simpoints",
]
