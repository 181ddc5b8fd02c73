"""Warm-up methods: the interface, baselines, and the Table 2 suite."""

from .base import WarmupMethod, WarmupCost, SimulationContext
from .none import NoWarmup
from .fixed_period import FixedPeriodWarmup, SmartsWarmup
from .mrrl import MRRLWarmup, reuse_latency_percentile
from .blrl import BLRLWarmup
from .suite import (
    paper_method_suite,
    paper_method_names,
    PAPER_FRACTIONS,
    REVERSE_FRACTIONS,
)
from .registry import (
    resolve_method,
    method_factory,
    registered_method_names,
)

__all__ = [
    "WarmupMethod",
    "WarmupCost",
    "SimulationContext",
    "NoWarmup",
    "FixedPeriodWarmup",
    "SmartsWarmup",
    "MRRLWarmup",
    "BLRLWarmup",
    "reuse_latency_percentile",
    "paper_method_suite",
    "paper_method_names",
    "PAPER_FRACTIONS",
    "REVERSE_FRACTIONS",
    "resolve_method",
    "method_factory",
    "registered_method_names",
]
