"""Analysis tools: fidelity scoring, IPC profiles, and accuracy audits."""

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
from .phases import (
    IPCProfile,
    measure_ipc_profile,
)

__all__ = [
    "StateFidelity",
    "FidelityReport",
    "measure_state_fidelity",
    "IPCProfile",
    "measure_ipc_profile",
    "AuditProbe",
    "ReferenceTrajectory",
    "compute_reference_trajectory",
    "diff_against_reference",
    "reference_trajectory_for",
]
