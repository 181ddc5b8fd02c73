"""Analysis tools: warm-up fidelity scoring and accuracy audits."""

from .audit import (
    AuditProbe,
    ReferenceTrajectory,
    compute_reference_trajectory,
    diff_against_reference,
    reference_trajectory_for,
)
from .fidelity import (
    StateFidelity,
    FidelityReport,
    measure_state_fidelity,
)

__all__ = [
    "StateFidelity",
    "FidelityReport",
    "measure_state_fidelity",
    "AuditProbe",
    "ReferenceTrajectory",
    "compute_reference_trajectory",
    "diff_against_reference",
    "reference_trajectory_for",
]
