"""Cache hierarchy substrate: caches, buses, and the two-level hierarchy."""

from .config import (
    CacheConfig,
    BusConfig,
    HierarchyConfig,
    WritePolicy,
    paper_hierarchy_config,
)
from .cache import Cache, CacheStats, mru_names
from .bus import Bus
from .hierarchy import MemoryHierarchy

__all__ = [
    "CacheConfig",
    "BusConfig",
    "HierarchyConfig",
    "WritePolicy",
    "paper_hierarchy_config",
    "Cache",
    "CacheStats",
    "mru_names",
    "Bus",
    "MemoryHierarchy",
]
