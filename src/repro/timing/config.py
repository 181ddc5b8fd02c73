"""Timing-core configuration (paper §4 experimental framework).

The paper's machine: fetch/dispatch 8 per cycle, issue/retire 4 per cycle,
eight fully pipelined universal function units, 64 in-flight instructions,
32-entry issue queue, 64-entry load/store queue, seven pipeline stages,
five-cycle minimum branch misprediction penalty, 2 GHz clock, and
architectural checkpoints allowing speculation past eight branches.

Two of those have no field.  Eight fully pipelined units never bind when
at most four instructions issue per cycle, so the model has no function
units to count.  The model counts cycles, not seconds, so it has no
clock.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CoreConfig:
    """Widths, depths, and capacities of the out-of-order core."""

    fetch_width: int = 8
    dispatch_width: int = 8
    issue_width: int = 4
    retire_width: int = 4
    rob_entries: int = 64
    issue_queue_entries: int = 32
    lsq_entries: int = 64
    pipeline_depth: int = 7
    #: Stages between fetch and dispatch (front-end portion of the pipe).
    frontend_depth: int = 3
    mispredict_penalty: int = 5
    max_inflight_branches: int = 8

    def __post_init__(self) -> None:
        positive = (
            "fetch_width", "dispatch_width", "issue_width", "retire_width",
            "rob_entries", "issue_queue_entries", "lsq_entries",
            "pipeline_depth", "frontend_depth", "max_inflight_branches",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.mispredict_penalty < 0:
            raise ValueError("mispredict_penalty must be non-negative")
        if self.frontend_depth >= self.pipeline_depth:
            raise ValueError("frontend_depth must be less than pipeline_depth")


def paper_core_config() -> CoreConfig:
    """The configuration used throughout the paper's evaluation."""
    return CoreConfig()
