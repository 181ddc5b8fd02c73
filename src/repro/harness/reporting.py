"""Plain-text report formatters for every paper table and figure.

Each ``format_*`` function turns harness results into the same rows or
series the paper reports, ready to print from a bench or example.
"""

from __future__ import annotations

from ..telemetry import PHASES, RECORD_AUDIT, TelemetrySnapshot
from .experiment import WorkloadExperiment, average_over_workloads

#: Stable column order of one audit record (``"type": "audit"``), as
#: exported by :func:`audit_rows` / ``repro audit --json``.  Everything
#: here is deterministic — no timing, no log-representation fields — so
#: the exported JSON is bit-for-bit identical between the compacted log
#: and the raw test oracle and between serial and parallel runs.
AUDIT_COLUMNS = (
    "workload", "method", "cluster", "start",
    "l1i_tag_agreement", "l1i_lru_agreement",
    "l1d_tag_agreement", "l1d_lru_agreement",
    "l2_tag_agreement", "l2_lru_agreement",
    "pht_counter_agreement", "pht_prediction_agreement", "ghr_match",
    "btb_agreement", "ras_agreement", "ras_top_match",
    "pht_entries_mentioned", "pht_exact", "pht_ambiguous_two",
    "pht_ambiguous_three", "pht_stale", "pht_ambiguity_mass",
    "ipc", "ref_ipc", "true_ipc", "cold_start_error", "sampling_error",
)

#: Agreement columns averaged in :func:`audit_summary` (booleans count
#: as 0/1 rates).
_AUDIT_AGREEMENT_COLUMNS = (
    "l1i_tag_agreement", "l1i_lru_agreement",
    "l1d_tag_agreement", "l1d_lru_agreement",
    "l2_tag_agreement", "l2_lru_agreement",
    "pht_counter_agreement", "pht_prediction_agreement", "ghr_match",
    "btb_agreement", "ras_agreement", "ras_top_match",
)


def format_table(headers: list[str], rows: list[list[str]],
                 title: str = "") -> str:
    """Render an aligned monospace table."""
    widths = [len(header) for header in headers]
    for row in rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        header.ljust(widths[column]) for column, header in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rows:
        lines.append(
            "  ".join(
                cell.ljust(widths[column]) for column, cell in enumerate(row)
            )
        )
    return "\n".join(lines)


def format_table1(matrix: dict[str, WorkloadExperiment]) -> str:
    """Paper Table 1: true IPC and sampling regimen per workload."""
    rows = []
    for name, experiment in matrix.items():
        regimen = next(
            iter(experiment.outcomes.values())
        ).run.regimen if experiment.outcomes else None
        rows.append([
            name,
            f"{experiment.true_ipc:.4f}",
            f"{experiment.true_run.instructions}",
            f"{regimen.num_clusters}" if regimen else "-",
            f"{regimen.cluster_size}" if regimen else "-",
            f"{experiment.true_run.wall_seconds:.1f}s",
        ])
    return format_table(
        ["workload", "true IPC", "instructions", "clusters",
         "cluster size", "full-sim time"],
        rows,
        title="Table 1: true IPC and sampling regimen",
    )


def format_method_summary(matrix: dict[str, WorkloadExperiment],
                          method_names: list[str],
                          title: str) -> str:
    """Average relative error + simulation cost per method (Figures 5-7)."""
    rows = []
    for method_name in method_names:
        error, work, wall = average_over_workloads(matrix, method_name)
        rows.append([
            method_name,
            f"{error * 100:.2f}%",
            f"{work:,.0f}",
            f"{wall:.2f}s",
        ])
    return format_table(
        ["method", "avg rel. error", "avg work units", "avg wall time"],
        rows,
        title=title,
    )


def format_per_workload(matrix: dict[str, WorkloadExperiment],
                        method_names: list[str],
                        value: str = "error",
                        title: str = "") -> str:
    """Per-workload grid of one metric (Figure 8, appendix tables).

    `value` is one of "error", "work", "wall", "ci", "ipc".
    """
    def cell(outcome) -> str:
        if value == "error":
            return f"{outcome.relative_error * 100:.2f}%"
        if value == "work":
            return f"{outcome.work_units:,.0f}"
        if value == "wall":
            return f"{outcome.wall_seconds:.2f}"
        if value == "ci":
            return "yes" if outcome.passes_confidence else "no"
        if value == "ipc":
            return f"{outcome.run.estimate.mean:.4f}"
        raise ValueError(f"unknown value kind {value!r}")

    headers = ["method"] + list(matrix) + ["AVG"]
    rows = []
    for method_name in method_names:
        row = [method_name]
        values = []
        for experiment in matrix.values():
            outcome = experiment.outcomes[method_name]
            row.append(cell(outcome))
            if value == "error":
                values.append(outcome.relative_error)
            elif value == "work":
                values.append(outcome.work_units)
            elif value == "wall":
                values.append(outcome.wall_seconds)
        if value == "error" and values:
            row.append(f"{sum(values) / len(values) * 100:.2f}%")
        elif value in ("work", "wall") and values:
            row.append(f"{sum(values) / len(values):,.0f}")
        else:
            row.append("-")
        rows.append(row)
    return format_table(headers, rows, title=title)


def format_telemetry_summary(snapshot: TelemetrySnapshot,
                             title: str = "Telemetry profile") -> str:
    """Render a run-level telemetry profile as three aligned tables.

    Sections: wall-time share per phase (the cost split the paper's
    speedup argument rests on), update/event counts per structure (every
    counter the stack incremented), and per-method trace-record totals
    (clusters traced, warm updates, log records, summed phase wall time).
    """
    sections = []

    total_seconds = snapshot.total_phase_seconds()
    phase_rows = []
    ordered = [name for name in ("prefix", *PHASES)
               if name in snapshot.phase_seconds]
    ordered += [name for name in sorted(snapshot.phase_seconds)
                if name not in ordered]
    for name in ordered:
        seconds = snapshot.phase_seconds[name]
        share = seconds / total_seconds if total_seconds else 0.0
        phase_rows.append([name, f"{seconds:.3f}s", f"{share * 100:.1f}%"])
    phase_rows.append(["total", f"{total_seconds:.3f}s", "100.0%"])
    sections.append(format_table(
        ["phase", "seconds", "share"], phase_rows,
        title=f"{title}: time per phase",
    ))

    if snapshot.counters:
        counter_rows = [
            [name, f"{value:,}"]
            for name, value in sorted(snapshot.counters.items())
        ]
        sections.append(format_table(
            ["metric", "count"], counter_rows,
            title="Updates and events per structure",
        ))

    if "log.stored_records" in snapshot.counters:
        sections.append(_format_compaction_section(snapshot))

    audit_summaries = audit_summary(snapshot)
    if audit_summaries:
        sections.append(_format_audit_summary_section(audit_summaries))

    per_method: dict[str, dict[str, float]] = {}
    for record in snapshot.trace_records:
        if record.get("type") != "cluster":
            continue
        totals = per_method.setdefault(record.get("method", "?"), {
            "clusters": 0, "warm_updates": 0, "log_records": 0,
            "wall_seconds": 0.0,
        })
        totals["clusters"] += 1
        totals["warm_updates"] += record.get("warm_updates", 0)
        totals["log_records"] += record.get("log_records", 0)
        totals["wall_seconds"] += record.get("wall_seconds", 0.0)
    if per_method:
        method_rows = [
            [name,
             f"{totals['clusters']:,}",
             f"{totals['warm_updates']:,}",
             f"{totals['log_records']:,}",
             f"{totals['wall_seconds']:.3f}s"]
            for name, totals in sorted(per_method.items())
        ]
        sections.append(format_table(
            ["method", "clusters", "warm updates", "log records",
             "cluster wall"],
            method_rows,
            title="Trace-record totals per method",
        ))
    else:
        # A headers-only run (zero cluster records) would otherwise end
        # on a silently missing table; say what happened instead.
        sections.append("no clusters recorded")

    return "\n\n".join(sections)


def compaction_stats(snapshot: TelemetrySnapshot) -> dict:
    """Skip-log retention figures from a traced run's counters.

    Returns raw/stored record counts, stored bytes, the dedup ratio
    (raw observed records per stored record; ``None`` when nothing was
    stored), and per-gap peaks from the retention histograms (``None``
    when no gap was recorded).
    """
    counters = snapshot.counters
    raw = (counters.get("log.memory_records", 0)
           + counters.get("log.branch_records", 0))
    stored = counters.get("log.stored_records", 0)
    records_hist = snapshot.histograms.get("log.gap_stored_records")
    bytes_hist = snapshot.histograms.get("log.gap_stored_bytes")
    return {
        "raw_records": raw,
        "stored_records": stored,
        "stored_bytes": counters.get("log.stored_bytes", 0),
        "dedup_ratio": raw / stored if stored else None,
        "peak_gap_records":
            int(records_hist.max)
            if records_hist is not None and records_hist.count else None,
        "peak_gap_bytes":
            int(bytes_hist.max)
            if bytes_hist is not None and bytes_hist.count else None,
    }


def _format_compaction_section(snapshot: TelemetrySnapshot) -> str:
    stats = compaction_stats(snapshot)
    ratio = stats["dedup_ratio"]
    rows = [
        ["raw records observed", f"{stats['raw_records']:,}"],
        ["records stored", f"{stats['stored_records']:,}"],
        ["dedup ratio", f"{ratio:.2f}x" if ratio is not None else "-"],
        ["bytes stored", f"{stats['stored_bytes']:,}"],
        ["peak gap records",
         f"{stats['peak_gap_records']:,}"
         if stats["peak_gap_records"] is not None else "-"],
        ["peak gap bytes",
         f"{stats['peak_gap_bytes']:,}"
         if stats["peak_gap_bytes"] is not None else "-"],
    ]
    return format_table(
        ["figure", "value"], rows,
        title="Skip-log compaction",
    )


def audit_rows(snapshot: TelemetrySnapshot) -> list[dict]:
    """The snapshot's audit records with a stable, sorted column set.

    One row per audited cluster, columns exactly :data:`AUDIT_COLUMNS`,
    sorted by (workload, method, cluster) — the deterministic order the
    equivalence acceptance criterion compares bit-for-bit.
    """
    rows = [
        {name: record.get(name) for name in AUDIT_COLUMNS}
        for record in snapshot.trace_records
        if record.get("type") == RECORD_AUDIT
    ]
    rows.sort(key=lambda row: (row["workload"], row["method"],
                               row["cluster"]))
    return rows


def audit_summary(snapshot: TelemetrySnapshot) -> list[dict]:
    """Aggregate the audit records into one row per (workload, method).

    Each aggregate carries the run's estimate decomposition — the mean
    per-cluster ``cold_start_error`` is exactly (estimate − reference
    estimate), the paper's non-sampling bias, and the mean
    ``sampling_error`` is (reference estimate − true IPC) — plus mean
    agreement scores per structure and the PHT inference census means
    (None for methods that do not reconstruct the PHT).
    """
    groups: dict[tuple, list[dict]] = {}
    for row in audit_rows(snapshot):
        groups.setdefault((row["workload"], row["method"]), []).append(row)

    def mean(rows: list[dict], name: str, absolute: bool = False):
        values = [row[name] for row in rows if row[name] is not None]
        if not values:
            return None
        if absolute:
            values = [abs(value) for value in values]
        return sum(float(value) for value in values) / len(values)

    summaries = []
    for (workload, method), rows in sorted(groups.items()):
        summary = {
            "workload": workload,
            "method": method,
            "clusters": len(rows),
            "true_ipc": rows[0]["true_ipc"],
            "mean_ipc": mean(rows, "ipc"),
            "mean_ref_ipc": mean(rows, "ref_ipc"),
            "cold_start_bias": mean(rows, "cold_start_error"),
            "sampling_bias": mean(rows, "sampling_error"),
            "mean_abs_cold_start_error":
                mean(rows, "cold_start_error", absolute=True),
            "mean_abs_sampling_error":
                mean(rows, "sampling_error", absolute=True),
        }
        for name in _AUDIT_AGREEMENT_COLUMNS:
            summary[f"mean_{name}"] = mean(rows, name)
        for name in ("pht_entries_mentioned", "pht_exact",
                     "pht_ambiguity_mass", "pht_stale"):
            summary[f"mean_{name}"] = mean(rows, name)
        summaries.append(summary)
    return summaries


def _format_audit_summary_section(summaries: list[dict]) -> str:
    rows = []
    for summary in summaries:
        rows.append([
            summary["workload"],
            summary["method"],
            f"{summary['clusters']}",
            f"{summary['mean_ipc']:.4f}",
            f"{summary['mean_ref_ipc']:.4f}",
            f"{summary['true_ipc']:.4f}",
            f"{summary['cold_start_bias']:+.4f}",
            f"{summary['sampling_bias']:+.4f}",
            f"{summary['mean_l1d_tag_agreement']:.3f}",
            f"{summary['mean_pht_counter_agreement']:.3f}",
            f"{summary['mean_btb_agreement']:.3f}",
            f"{summary['mean_ras_agreement']:.3f}",
        ])
    return format_table(
        ["workload", "method", "clusters", "est IPC", "ref IPC",
         "true IPC", "cold-start bias", "sampling bias", "l1d agr",
         "pht agr", "btb agr", "ras agr"],
        rows,
        title="Accuracy audit: error attribution per method",
    )


def format_audit_report(snapshot: TelemetrySnapshot,
                        title: str = "Accuracy audit") -> str:
    """Render the per-cluster audit as aligned tables.

    One per-cluster table per (workload, method) group — structure
    agreement scores, PHT ambiguity mass, and the cold-start vs
    sampling error split — followed by the cross-method attribution
    summary table.  Empty string when the snapshot has no audit records.
    """
    summaries = audit_summary(snapshot)
    if not summaries:
        return ""
    rows_by_group: dict[tuple, list[dict]] = {}
    for row in audit_rows(snapshot):
        key = (row["workload"], row["method"])
        rows_by_group.setdefault(key, []).append(row)

    sections = []
    for (workload, method), rows in sorted(rows_by_group.items()):
        table_rows = []
        for row in rows:
            mass = row["pht_ambiguity_mass"]
            table_rows.append([
                f"{row['cluster']}",
                f"{row['start']:,}",
                f"{row['l1d_tag_agreement']:.3f}",
                f"{row['l2_tag_agreement']:.3f}",
                f"{row['pht_counter_agreement']:.3f}",
                f"{mass}" if mass is not None else "-",
                f"{row['btb_agreement']:.3f}",
                f"{row['ras_agreement']:.3f}",
                f"{row['ipc']:.4f}",
                f"{row['ref_ipc']:.4f}",
                f"{row['cold_start_error']:+.4f}",
                f"{row['sampling_error']:+.4f}",
            ])
        sections.append(format_table(
            ["cluster", "start", "l1d agr", "l2 agr", "pht agr",
             "amb mass", "btb agr", "ras agr", "ipc", "ref ipc",
             "cold err", "samp err"],
            table_rows,
            title=f"{title}: {workload} / {method}",
        ))
    sections.append(_format_audit_summary_section(summaries))
    return "\n\n".join(sections)


def format_speedups(matrix: dict[str, WorkloadExperiment],
                    method_name: str, baseline: str = "S$BP",
                    title: str = "") -> str:
    """Per-workload speedup ratios of `method_name` over `baseline`."""
    rows = []
    ratios = []
    wall_ratios = []
    for name, experiment in matrix.items():
        ratio = experiment.speedup(method_name, baseline)
        wall_ratio = experiment.wall_speedup(method_name, baseline)
        ratios.append(ratio)
        wall_ratios.append(wall_ratio)
        rows.append([name, f"{ratio:.2f}x", f"{wall_ratio:.2f}x"])
    if ratios:
        rows.append([
            "AVG",
            f"{sum(ratios) / len(ratios):.2f}x",
            f"{sum(wall_ratios) / len(wall_ratios):.2f}x",
        ])
    else:
        # An empty grid still renders as a (headers-only + AVG dashes)
        # table instead of dividing by zero.
        rows.append(["AVG", "-", "-"])
    return format_table(
        ["workload", f"work speedup vs {baseline}",
         f"wall speedup vs {baseline}"],
        rows,
        title=title or f"Speedup of {method_name} over {baseline}",
    )
