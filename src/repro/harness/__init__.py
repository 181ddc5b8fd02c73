"""Experiment harness: evaluation matrices and report formatting."""

from .experiment import (
    ExperimentScale,
    SCALES,
    scale_from_env,
    MethodOutcome,
    WorkloadExperiment,
    TrueRunSpec,
    true_run_for,
    average_over_workloads,
)
# The result cache is the ``results`` layer of the one store.
from ..store import CheckpointStore as ResultCache
from .options import RunOptions, options_from_env
from .parallel import (
    CellProgress,
    CellSpec,
    LiveProgress,
    console_progress,
    execute_matrix,
    map_tasks,
    matrix_specs,
    merged_telemetry,
)
from .report import render_report
from .export import (
    audit_to_json,
    matrix_rows,
    matrix_to_csv,
    matrix_to_json,
    save_audit,
    save_matrix,
)
from .reporting import (
    AUDIT_COLUMNS,
    audit_rows,
    audit_summary,
    compaction_stats,
    format_audit_report,
    format_table,
    format_table1,
    format_method_summary,
    format_per_workload,
    format_speedups,
    format_telemetry_summary,
)

__all__ = [
    "ExperimentScale",
    "SCALES",
    "scale_from_env",
    "MethodOutcome",
    "WorkloadExperiment",
    "TrueRunSpec",
    "true_run_for",
    "average_over_workloads",
    "ResultCache",
    "RunOptions",
    "options_from_env",
    "CellProgress",
    "CellSpec",
    "LiveProgress",
    "console_progress",
    "execute_matrix",
    "map_tasks",
    "matrix_specs",
    "merged_telemetry",
    "render_report",
    "matrix_rows",
    "matrix_to_csv",
    "matrix_to_json",
    "save_matrix",
    "audit_to_json",
    "save_audit",
    "AUDIT_COLUMNS",
    "audit_rows",
    "audit_summary",
    "format_audit_report",
    "format_table",
    "format_table1",
    "format_method_summary",
    "format_per_workload",
    "format_speedups",
    "format_telemetry_summary",
    "compaction_stats",
]
