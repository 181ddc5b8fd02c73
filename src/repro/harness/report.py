"""Self-contained HTML run report (stdlib only, inline SVG).

``repro report`` fuses two observability artifacts into one file that
opens anywhere with no server and no external assets:

- the **span timeline** from a ``REPRO_TRACE`` record file — one lane per
  (pid, tid), nested spans stacked by depth, phase spans colored by a
  fixed categorical palette, structural spans (run / phase_a / phase_b /
  cluster / cache) recessive gray; native SVG tooltips carry exact
  durations;
- **per-cluster audit error bars** from ``repro audit --json`` output —
  the cold-start vs sampling decomposition of each cluster's IPC error,
  mirrored around a zero baseline.

Sections whose input is absent are skipped with a small notice, so the
report renders usefully from either input alone.
"""

from __future__ import annotations

import html

from ..telemetry import RECORD_SPAN, build_span_tree

#: Fixed categorical palette (slot order is the CVD-safety mechanism —
#: never reassigned per chart).  Phase spans take the first four slots;
#: the audit chart's two series take slots 1 and 2.
_SERIES = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100")

#: Phase-name -> palette-slot mapping for the timeline.
_PHASE_COLORS = {
    "cold_skip": _SERIES[0],
    "reconstruct": _SERIES[1],
    "hot_sim": _SERIES[2],
    "audit": _SERIES[3],
}

#: Recessive fill for structural (non-phase) spans.
_STRUCTURAL = "#c3c2b7"

_CSS = """
:root { color-scheme: light; }
body {
  margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
  background: #f9f9f7; color: #0b0b0b;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
}
.panel {
  background: #fcfcfb; border: 1px solid rgba(11,11,11,0.10);
  border-radius: 6px; padding: 1rem 1.25rem; margin: 1rem 0;
}
h1 { font-size: 1.4rem; }
h2 { font-size: 1.05rem; }
p.note, td.num, .lane-label { color: #52514e; }
p.missing { color: #898781; font-style: italic; }
table { border-collapse: collapse; font-size: 0.85rem; }
th, td { text-align: left; padding: 0.25rem 0.9rem 0.25rem 0; }
th { color: #52514e; font-weight: 600;
     border-bottom: 1px solid #e1e0d9; }
td.num { font-variant-numeric: tabular-nums; }
.legend { display: flex; gap: 1.25rem; flex-wrap: wrap;
          font-size: 0.8rem; margin: 0.5rem 0; color: #52514e; }
.legend span.swatch {
  display: inline-block; width: 0.7rem; height: 0.7rem;
  border-radius: 2px; margin-right: 0.35rem; vertical-align: -0.05rem;
}
svg text { fill: #898781; font-size: 10px;
           font-family: system-ui, sans-serif; }
svg text.lane-label { fill: #52514e; }
"""


def _fmt_ns(ns: float) -> str:
    """Human duration for tooltips (ns -> us/ms/s as magnitude fits)."""
    if ns >= 1e9:
        return f"{ns / 1e9:.3f} s"
    if ns >= 1e6:
        return f"{ns / 1e6:.3f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.1f} us"
    return f"{ns:.0f} ns"


def _span_color(record: dict) -> str:
    return _PHASE_COLORS.get(record["name"], _STRUCTURAL)


def _walk(nodes, depth, visit) -> None:
    for node in nodes:
        visit(node, depth)
        _walk(node["children"], depth + 1, visit)


def _timeline_svg(spans: list[dict]) -> str:
    """The lane timeline: one band per (pid, tid), nested spans stacked
    by tree depth, width proportional to duration."""
    roots = build_span_tree(spans)
    if not roots:
        return ""
    flat: list[tuple] = []
    _walk(roots, 0, lambda node, depth: flat.append((node, depth)))
    t0 = min(node["ts"] for node, _ in flat)
    t1 = max(node["ts"] + node["dur"] for node, _ in flat)
    extent = max(t1 - t0, 1)

    lanes: dict[tuple, list] = {}
    for node, depth in flat:
        lanes.setdefault((node["pid"], node["tid"]), []).append(
            (node, depth)
        )
    # Root process first (the lane owning the earliest span), workers
    # after it in pid order — matches the Perfetto export's lane naming.
    ordered = sorted(lanes, key=lambda lane: (
        min(node["ts"] for node, _ in lanes[lane]), lane
    ))

    width, left, row, gap = 960.0, 150.0, 16.0, 10.0
    plot = width - left - 10.0

    def x_of(ts: float) -> float:
        return left + (ts - t0) / extent * plot

    parts = []
    y = 18.0
    for lane in ordered:
        entries = lanes[lane]
        depth_count = max(depth for _, depth in entries) + 1
        label = f"pid {lane[0]} / tid {lane[1]}"
        parts.append(
            f'<text class="lane-label" x="4" '
            f'y="{y + row - 4:.1f}">{html.escape(label)}</text>'
        )
        for node, depth in entries:
            bar_x = x_of(node["ts"])
            bar_w = max(node["dur"] / extent * plot, 1.0)
            bar_y = y + depth * row
            tip = f"{node['name']} — {_fmt_ns(node['dur'])}"
            args = node.get("args")
            if args:
                detail = ", ".join(f"{k}={v}" for k, v in args.items())
                tip += f" ({detail})"
            parts.append(
                f'<rect x="{bar_x:.2f}" y="{bar_y:.1f}" '
                f'width="{bar_w:.2f}" height="{row - 3:.1f}" rx="2" '
                f'fill="{_span_color(node)}">'
                f'<title>{html.escape(tip)}</title></rect>'
            )
        y += depth_count * row + gap

    # One axis: elapsed run time along the bottom, hairline baseline.
    parts.append(
        f'<line x1="{left}" y1="{y:.1f}" x2="{width - 10}" '
        f'y2="{y:.1f}" stroke="#c3c2b7" stroke-width="1"/>'
    )
    for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
        tick_x = left + fraction * plot
        parts.append(
            f'<line x1="{tick_x:.1f}" y1="{y:.1f}" x2="{tick_x:.1f}" '
            f'y2="{y + 4:.1f}" stroke="#c3c2b7" stroke-width="1"/>'
            f'<text x="{tick_x:.1f}" y="{y + 15:.1f}" '
            f'text-anchor="middle">'
            f'{html.escape(_fmt_ns(fraction * extent))}</text>'
        )
    height = y + 22.0
    return (
        f'<svg viewBox="0 0 {width:.0f} {height:.0f}" width="100%" '
        f'role="img" aria-label="span timeline">'
        + "".join(parts) + "</svg>"
    )


def _timeline_section(spans: list[dict]) -> str:
    span_records = [r for r in spans if r.get("type") == RECORD_SPAN]
    if not span_records:
        return ('<section class="panel"><h2>Span timeline</h2>'
                '<p class="missing">no spans recorded — run with '
                'REPRO_TRACE=&lt;path&gt; (or repro matrix --trace)'
                '</p></section>')
    processes = len({r["pid"] for r in span_records})
    legend = "".join(
        f'<span><span class="swatch" style="background:{color}">'
        f'</span>{html.escape(name)}</span>'
        for name, color in list(_PHASE_COLORS.items())
        + [("structural (run / phases / clusters / cache)", _STRUCTURAL)]
    )
    return (
        '<section class="panel"><h2>Span timeline</h2>'
        f'<p class="note">{len(span_records)} spans across '
        f'{processes} process(es); hover a bar for its exact '
        f'duration.</p>'
        f'<div class="legend">{legend}</div>'
        + _timeline_svg(span_records)
        + "</section>"
    )


def _audit_chart(rows: list[dict]) -> str:
    """Mirrored per-cluster bars: cold-start vs sampling IPC error."""
    width, left, height = 960.0, 60.0, 180.0
    mid = height / 2.0
    plot = width - left - 10.0
    peak = max(
        (abs(row.get(name) or 0.0)
         for row in rows for name in ("cold_start_error",
                                      "sampling_error")),
        default=0.0,
    ) or 1e-9
    scale = (mid - 24.0) / peak
    slot = plot / max(len(rows), 1)
    bar = max(min((slot - 6.0) / 2.0, 16.0), 1.5)

    parts = [
        # Recessive zero baseline (the one axis) + hairline peak grid.
        f'<line x1="{left}" y1="{mid}" x2="{width - 10}" y2="{mid}" '
        f'stroke="#c3c2b7" stroke-width="1"/>',
        f'<text x="{left - 6}" y="{mid + 3}" text-anchor="end">0</text>',
    ]
    for sign in (+1, -1):
        grid_y = mid - sign * peak * scale
        parts.append(
            f'<line x1="{left}" y1="{grid_y:.1f}" x2="{width - 10}" '
            f'y2="{grid_y:.1f}" stroke="#e1e0d9" stroke-width="1"/>'
            f'<text x="{left - 6}" y="{grid_y + 3:.1f}" '
            f'text-anchor="end">{sign * peak:+.4f}</text>'
        )
    for position, row in enumerate(rows):
        base_x = left + position * slot + slot / 2.0
        for offset, (name, color) in enumerate(
            (("cold_start_error", _SERIES[0]),
             ("sampling_error", _SERIES[1]))
        ):
            value = row.get(name) or 0.0
            bar_h = abs(value) * scale
            bar_y = mid - bar_h if value >= 0 else mid
            bar_x = base_x + (offset - 1) * bar + offset * 2.0
            tip = (f"cluster {row.get('cluster')}: {name} = "
                   f"{value:+.5f} IPC")
            parts.append(
                f'<rect x="{bar_x:.2f}" y="{bar_y:.2f}" '
                f'width="{bar:.2f}" height="{max(bar_h, 0.5):.2f}" '
                f'rx="1.5" fill="{color}">'
                f'<title>{html.escape(tip)}</title></rect>'
            )
        if len(rows) <= 32:
            parts.append(
                f'<text x="{base_x:.1f}" y="{height - 4:.1f}" '
                f'text-anchor="middle">{row.get("cluster")}</text>'
            )
    return (
        f'<svg viewBox="0 0 {width:.0f} {height:.0f}" width="100%" '
        f'role="img" aria-label="per-cluster error decomposition">'
        + "".join(parts) + "</svg>"
    )


def _fmt_bias(value) -> str:
    return "-" if value is None else f"{value:+.5f}"


def _audit_section(audit: dict | None) -> str:
    header = '<section class="panel"><h2>Accuracy audit</h2>'
    if not audit or not audit.get("clusters"):
        return (header + '<p class="missing">no audit data — generate '
                'with repro audit &lt;workload&gt; --json '
                '&lt;path&gt;</p></section>')
    legend = (
        f'<div class="legend">'
        f'<span><span class="swatch" style="background:{_SERIES[0]}">'
        f'</span>cold-start error</span>'
        f'<span><span class="swatch" style="background:{_SERIES[1]}">'
        f'</span>sampling error</span></div>'
    )
    groups: dict[tuple, list] = {}
    for row in audit["clusters"]:
        groups.setdefault((row.get("workload"), row.get("method")),
                          []).append(row)
    charts = []
    for (workload, method), rows in sorted(groups.items()):
        rows.sort(key=lambda row: row.get("cluster", 0))
        charts.append(
            f'<h2>{html.escape(str(workload))} × '
            f'{html.escape(str(method))}</h2>'
            + _audit_chart(rows)
        )
    summary_rows = "".join(
        '<tr>'
        f'<td>{html.escape(str(entry.get("workload")))}</td>'
        f'<td>{html.escape(str(entry.get("method")))}</td>'
        f'<td class="num">{entry.get("clusters")}</td>'
        f'<td class="num">{_fmt_bias(entry.get("cold_start_bias"))}</td>'
        f'<td class="num">{_fmt_bias(entry.get("sampling_bias"))}</td>'
        '</tr>'
        for entry in audit.get("summary", [])
    )
    table = (
        '<table><tr><th>workload</th><th>method</th><th>clusters</th>'
        '<th>cold-start bias</th><th>sampling bias</th></tr>'
        + summary_rows + "</table>"
    ) if summary_rows else ""
    return (
        header
        + '<p class="note">Per-cluster IPC error split into its '
        'cold-start component (reconstruction imperfection) and its '
        'sampling component (cluster placement), mirrored around '
        'zero.</p>' + legend + table + "".join(charts) + "</section>"
    )


def render_report(spans: list[dict], audit: dict | None = None,
                  title: str = "repro run report") -> str:
    """The full self-contained HTML document (no external assets)."""
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        f"<title>{html.escape(title)}</title>"
        f"<style>{_CSS}</style></head><body>"
        f"<h1>{html.escape(title)}</h1>"
        + _timeline_section(spans)
        + _audit_section(audit)
        + "</body></html>\n"
    )
