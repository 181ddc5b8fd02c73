"""Synthetic SPEC2000-like workload generators."""

from .generator import (
    Workload,
    init_pointer_chain,
    init_jump_table,
    init_array,
    round_up_power_of_two,
)
from .spec_like import (
    PAPER_WORKLOADS,
    WORKLOAD_BUILDERS,
    available_workloads,
    build_workload,
    cached_workload,
    build_ammp,
    build_art,
    build_gcc,
    build_mcf,
    build_parser,
    build_perl,
    build_twolf,
    build_vortex,
    build_vpr,
)

__all__ = [
    "Workload",
    "init_pointer_chain",
    "init_jump_table",
    "init_array",
    "round_up_power_of_two",
    "PAPER_WORKLOADS",
    "WORKLOAD_BUILDERS",
    "available_workloads",
    "build_workload",
    "cached_workload",
    "build_ammp",
    "build_art",
    "build_gcc",
    "build_mcf",
    "build_parser",
    "build_perl",
    "build_twolf",
    "build_vortex",
    "build_vpr",
]
