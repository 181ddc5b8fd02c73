"""Tests for hierarchical span tracing: recorder semantics, cross-process
propagation, the Chrome trace export, the events firehose, and the HTML
run report."""

import json

import pytest

from repro.__main__ import build_parser, main
from repro.harness.experiment import SCALES
from repro.harness.parallel import LiveProgress
from repro.harness.report import render_report
from repro.sampling import SampledSimulator
from repro.telemetry import (
    CHROME_TRACE_SCHEMA,
    NULL_SPANS,
    SpanContext,
    SpanRecorder,
    Telemetry,
    build_span_tree,
    check_lane_nesting,
    read_events,
    read_spans,
    read_trace,
    recorder_from_env,
    span_tree_shape,
    spans_enabled,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_trace,
)
from repro.warmup import resolve_method
from repro.workloads import build_workload

CI = SCALES["ci"]
#: Sharded runs add phase_a/phase_b grouping spans; collapsing them (and
#: merging same-named cluster spans across phases) recovers the serial tree.
COLLAPSE = ("phase_a", "phase_b")


def run_sampled(cluster_jobs, method="R$BP (20%)", workload="ammp"):
    """One ci-tier sampled run; returns (result, telemetry snapshot)."""
    built = build_workload(workload, mem_scale=CI.mem_scale)
    telemetry = Telemetry()
    simulator = SampledSimulator(
        built, CI.regimen(), CI.configs(),
        warmup_prefix=CI.warmup_prefix,
        detail_ramp=CI.detail_ramp,
        telemetry=telemetry,
        cluster_jobs=cluster_jobs,
    )
    result = simulator.run(resolve_method(method))
    return result, telemetry.snapshot()


class TestSpanRecorder:
    def test_nesting_sets_parent_links(self):
        recorder = SpanRecorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        inner, outer = recorder.records
        assert inner["name"] == "inner"
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert outer["dur"] >= inner["dur"] >= 0

    def test_counter_record_shape(self):
        recorder = SpanRecorder()
        recorder.counter("log.stored_records", 42)
        (record,) = recorder.records
        assert record["type"] == "counter"
        assert record["name"] == "log.stored_records"
        assert record["value"] == 42

    def test_context_roundtrips_through_encode_decode(self):
        recorder = SpanRecorder()
        with recorder.span("root"):
            context = recorder.context()
            decoded = SpanContext.decode(context.encode())
        assert decoded == context
        assert decoded.parent_id is not None
        assert SpanContext.decode("") is None
        assert SpanContext.decode("garbage") is None

    def test_worker_spans_reparent_under_sender(self):
        parent = SpanRecorder()
        with parent.span("run"):
            context = parent.context()
            worker = SpanRecorder(context=context)
            with worker.span("cluster 0"):
                pass
            parent.adopt(worker.export())
        roots = build_span_tree(parent.records)
        assert [node["name"] for node in roots] == ["run"]
        children = [child["name"] for child in roots[0]["children"]]
        assert children == ["cluster 0"]

    def test_same_process_recorders_never_collide(self):
        # The in-process map_tasks fallback creates worker recorders in
        # the parent's pid; the per-recorder instance index keeps ids
        # unique even then.
        first, second = SpanRecorder(), SpanRecorder()
        with first.span("a"):
            pass
        with second.span("b"):
            pass
        ids = {first.records[0]["id"], second.records[0]["id"]}
        assert len(ids) == 2

    def test_null_recorder_is_inert(self):
        assert not NULL_SPANS.enabled
        with NULL_SPANS.span("anything"):
            pass
        assert NULL_SPANS.export() == []
        assert NULL_SPANS.flush() == 0
        assert NULL_SPANS.context() is None

    def test_recorder_from_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_SPANS", raising=False)
        assert not spans_enabled()
        assert recorder_from_env() is NULL_SPANS
        monkeypatch.setenv("REPRO_SPANS", "1")
        assert spans_enabled()
        assert recorder_from_env().path is None
        path = tmp_path / "spans.jsonl"
        monkeypatch.setenv("REPRO_SPANS", str(path))
        recorder = recorder_from_env()
        assert recorder.path == str(path)


class TestTreeShapeDeterminism:
    """The acceptance property: the span tree is a deterministic function
    of the run, not of worker scheduling."""

    def test_serial_vs_sharded_shapes_match(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPANS", "1")
        _, serial = run_sampled(1)
        _, sharded2 = run_sampled(2)
        _, sharded4 = run_sampled(4)
        shape1 = span_tree_shape(serial.spans, collapse=COLLAPSE)
        shape2 = span_tree_shape(sharded2.spans, collapse=COLLAPSE)
        shape4 = span_tree_shape(sharded4.spans, collapse=COLLAPSE)
        assert shape1 == shape2 == shape4
        # The uncollapsed sharded tree keeps its two-phase structure.
        raw = span_tree_shape(sharded2.spans)
        assert raw != shape1

    def test_serial_tree_names_the_pipeline(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPANS", "1")
        _, snapshot = run_sampled(1)
        roots = build_span_tree(snapshot.spans)
        assert [node["name"] for node in roots] == ["run"]
        child_names = {child["name"] for child in roots[0]["children"]}
        assert "cluster 0" in child_names
        cluster = next(child for child in roots[0]["children"]
                       if child["name"] == "cluster 0")
        phases = {grand["name"] for grand in cluster["children"]}
        assert {"cold_skip", "reconstruct", "hot_sim"} <= phases

    def test_spans_off_is_bit_identical(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPANS", raising=False)
        plain, plain_snap = run_sampled(1)
        monkeypatch.setenv("REPRO_SPANS", "1")
        traced, traced_snap = run_sampled(1)
        assert plain.cluster_ipcs == traced.cluster_ipcs
        assert plain.estimate.mean == traced.estimate.mean
        assert plain_snap.spans == []
        assert traced_snap.spans


class TestChromeExport:
    def test_export_passes_checked_in_schema(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPANS", "1")
        _, snapshot = run_sampled(2)
        payload = to_chrome_trace(snapshot.spans)
        assert validate_chrome_trace(payload) == []
        assert check_lane_nesting(payload) == []

    def test_schema_constant_matches_checked_in_file(self):
        with open("docs/schemas/chrome-trace.schema.json") as fh:
            checked_in = json.load(fh)
        assert checked_in == CHROME_TRACE_SCHEMA

    def test_counters_become_counter_events(self):
        recorder = SpanRecorder()
        with recorder.span("run"):
            recorder.counter("log.stored_records", 7)
        payload = to_chrome_trace(recorder.export())
        phases = [event["ph"] for event in payload["traceEvents"]]
        assert "X" in phases and "C" in phases and "M" in phases
        counter = next(event for event in payload["traceEvents"]
                       if event["ph"] == "C")
        assert counter["args"]["value"] == 7

    def test_validator_rejects_malformed_payloads(self):
        assert validate_chrome_trace({"traceEvents": "nope"})
        assert validate_chrome_trace(
            {"traceEvents": [{"ph": "Z", "pid": 1, "tid": 1, "name": "x"}]}
        )
        assert validate_chrome_trace([]) != []

    def test_lane_nesting_flags_straddling_span(self):
        events = [
            {"ph": "X", "pid": 1, "tid": 1, "name": "a", "ts": 0, "dur": 10},
            {"ph": "X", "pid": 1, "tid": 1, "name": "b", "ts": 5, "dur": 10},
        ]
        errors = check_lane_nesting({"traceEvents": events})
        assert errors and "straddles" in errors[0]

    def test_write_chrome_trace_roundtrips(self, tmp_path):
        recorder = SpanRecorder()
        with recorder.span("run"):
            pass
        path = tmp_path / "trace.chrome.json"
        count = write_chrome_trace(recorder.export(), str(path))
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == count
        assert validate_chrome_trace(payload) == []


class TestTruncatedTail:
    """An interrupted run may cut the final JSONL line mid-record; reads
    recover everything before it instead of raising."""

    def test_truncated_final_line_is_skipped_with_warning(
            self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        write_trace([{"type": "cluster", "index": 0},
                     {"type": "cluster", "index": 1}], str(path))
        with open(path, "a") as fh:
            fh.write('{"type": "cluster", "ind')  # interrupted write
        records = read_trace(str(path))
        assert [record["index"] for record in records] == [0, 1]
        err = capsys.readouterr().err
        assert "truncated final record" in err
        assert str(path) in err

    def test_malformed_middle_line_still_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "cluster"}\nnot json\n{"type": "span"}\n')
        with pytest.raises(json.JSONDecodeError):
            read_trace(str(path))

    def test_read_spans_shares_the_tolerance(self, tmp_path, capsys):
        path = tmp_path / "spans.jsonl"
        recorder = SpanRecorder(path=str(path))
        with recorder.span("run"):
            pass
        recorder.flush()
        with open(path, "a") as fh:
            fh.write('{"type": "span", "id": "1:1')
        assert [r["name"] for r in read_spans(str(path))] == ["run"]
        assert "truncated final record" in capsys.readouterr().err


class TestEventsFirehose:
    def test_run_emits_cluster_and_run_events(self, monkeypatch, tmp_path):
        path = tmp_path / "events.jsonl"
        monkeypatch.setenv("REPRO_EVENTS", str(path))
        run_sampled(1)
        events = read_events(str(path))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        clusters = [event for event in events if event["event"] == "cluster"]
        assert len(clusters) == CI.regimen().num_clusters
        assert all("wall_seconds" in event for event in clusters)

    def test_events_stamp_ambient_run_id(self, monkeypatch, tmp_path):
        path = tmp_path / "events.jsonl"
        monkeypatch.setenv("REPRO_EVENTS", str(path))
        monkeypatch.setenv("REPRO_RUN_ID", "rfirehose1")
        run_sampled(1)
        events = read_events(str(path))
        assert events and all(
            event["run_id"] == "rfirehose1" for event in events)

    def test_no_run_id_field_without_ambient_id(self, monkeypatch,
                                                tmp_path):
        path = tmp_path / "events.jsonl"
        monkeypatch.setenv("REPRO_EVENTS", str(path))
        monkeypatch.delenv("REPRO_RUN_ID", raising=False)
        run_sampled(1)
        assert all("run_id" not in event
                   for event in read_events(str(path)))

    def test_failed_append_warns_once_per_path(self, tmp_path, capsys):
        from repro.telemetry.events import emit_event

        # A directory path makes every append raise OSError; the
        # firehose must warn on the first failure and then go quiet.
        dead = tmp_path / "not-a-file"
        dead.mkdir()
        emit_event(str(dead), "cluster", index=0)
        emit_event(str(dead), "cluster", index=1)
        err = capsys.readouterr().err
        assert err.count("cannot append events") == 1
        assert str(dead) in err


class TestRunReport:
    def test_report_renders_spans_audit_and_trajectory(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPANS", "1")
        _, snapshot = run_sampled(2)
        audit = {
            "schema": "repro-audit-v1",
            "summary": [{"workload": "ammp", "method": "S$BP",
                         "clusters": 2, "cold_start_bias": 0.01,
                         "sampling_bias": -0.002}],
            "clusters": [
                {"workload": "ammp", "method": "S$BP", "cluster": 0,
                 "cold_start_error": 0.01, "sampling_error": -0.001,
                 "ipc": 1.0},
                {"workload": "ammp", "method": "S$BP", "cluster": 1,
                 "cold_start_error": -0.02, "sampling_error": 0.003,
                 "ipc": 1.1},
            ],
        }
        trajectory = {"schema": "repro-trajectory-v1",
                      "benches": {"pr7": {"bench": "span_overhead",
                                          "scale": "bench",
                                          "metrics": {"ratio": 1.0}}}}
        html = render_report(snapshot.spans, audit=audit,
                             trajectory=trajectory)
        assert "<svg" in html
        assert "Span timeline" in html
        assert "Accuracy audit" in html
        assert "Benchmark trajectory" in html
        assert "span_overhead" in html

    def test_report_degrades_without_inputs(self):
        html = render_report([])
        assert "no spans recorded" in html


class TestLiveProgress:
    def test_streams_rate_and_eta(self):
        from io import StringIO
        from repro.harness.parallel import CellProgress

        stream = StringIO()
        progress = LiveProgress(stream=stream)
        progress(CellProgress(completed=1, total=4, kind="cell",
                              workload_name="ammp", method_name="S$BP",
                              wall_seconds=0.5, cached=False))
        progress(CellProgress(completed=4, total=4, kind="cell",
                              workload_name="ammp", method_name="None",
                              wall_seconds=0.1, cached=True))
        out = stream.getvalue()
        assert "[1/4]" in out and "[4/4]" in out
        assert "cells/s" in out
        assert "ETA" in out
        assert "(cache)" in out


class TestCLI:
    def test_matrix_parser_accepts_progress_and_spans(self):
        args = build_parser().parse_args(
            ["matrix", "--progress", "--spans", "spans.jsonl"])
        assert args.progress
        assert args.spans == "spans.jsonl"

    def test_trace_export_parser(self):
        args = build_parser().parse_args(
            ["trace", "export", "spans.jsonl", "--format", "jsonl"])
        assert args.command == "trace"
        assert args.action == "export"
        assert args.format == "jsonl"

    def test_trace_export_writes_validated_chrome_json(
            self, tmp_path, capsys):
        spans_path = tmp_path / "spans.jsonl"
        recorder = SpanRecorder(path=str(spans_path))
        with recorder.span("run"):
            with recorder.span("cluster 0", cluster=0):
                recorder.counter("log.stored_records", 3)
        recorder.flush()
        out_path = tmp_path / "trace.chrome.json"
        assert main(["trace", "export", str(spans_path),
                     "-o", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert validate_chrome_trace(payload) == []
        assert "perfetto" in capsys.readouterr().out

    def test_report_command_writes_html(self, tmp_path, capsys):
        spans_path = tmp_path / "spans.jsonl"
        recorder = SpanRecorder(path=str(spans_path))
        with recorder.span("run"):
            pass
        recorder.flush()
        out_path = tmp_path / "report.html"
        assert main(["report", "--spans", str(spans_path),
                     "-o", str(out_path)]) == 0
        html = out_path.read_text()
        assert "<svg" in html and "Span timeline" in html
        assert "report written" in capsys.readouterr().out

    def test_metrics_command_renders_exposition_from_trace(
            self, tmp_path, capsys, monkeypatch):
        from repro.telemetry import parse_exposition

        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        trace_path = tmp_path / "trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(trace_path))
        assert main(["sample", "ammp", "--method", "rsr"]) == 0
        capsys.readouterr()
        out_path = tmp_path / "metrics.prom"
        assert main(["metrics", str(trace_path),
                     "-o", str(out_path)]) == 0
        assert "written to" in capsys.readouterr().out
        families = parse_exposition(out_path.read_text())
        clusters = families["repro_clusters_total"]["samples"]
        assert clusters[0][1]["workload"] == "ammp"
        assert clusters[0][2] == CI.regimen().num_clusters
        assert families["repro_cluster_wall_seconds"]["kind"] == \
            "histogram"
        # The CLI mints one run_id per invocation; the trace records
        # carry it, so the offline exposition grows one info series.
        run_ids = [labels["run_id"] for _, labels, _
                   in families["repro_run_info"]["samples"]]
        assert len(run_ids) == 1 and run_ids[0].startswith("r")

    def test_metrics_command_warns_on_empty_trace(self, tmp_path,
                                                  capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["metrics", str(empty)]) == 0
        captured = capsys.readouterr()
        assert "no records" in captured.err
        assert captured.out == ""

    def test_profile_with_no_clusters_prints_readable_notice(
            self, capsys, monkeypatch):
        import repro.telemetry as telemetry_pkg

        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        monkeypatch.setattr(telemetry_pkg, "merge_snapshots",
                            lambda snapshots: None)
        assert main(["profile", "ammp", "--method", "None"]) == 0
        out = capsys.readouterr().out
        assert "no clusters recorded" in out
        assert "ammp profile" in out
