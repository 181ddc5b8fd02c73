"""Tests for hierarchical span tracing: recorder semantics, cross-process
propagation, the Chrome trace export, the one record file, and the HTML
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
    NULL_TELEMETRY,
    SpanContext,
    SpanRecorder,
    Telemetry,
    append_trace,
    build_span_tree,
    check_lane_nesting,
    read_trace,
    span_tree_shape,
    telemetry_from_env,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.warmup import resolve_method
from repro.workloads import build_workload

CI = SCALES["ci"]
#: Sharded runs add phase_a/phase_b grouping spans; collapsing them (and
#: merging same-named cluster spans across phases) recovers the serial tree.
COLLAPSE = ("phase_a", "phase_b")


def run_sampled(cluster_jobs, method="R$BP (20%)", workload="ammp",
                telemetry=None):
    """One ci-tier sampled run; returns (result, telemetry snapshot).

    Without `telemetry` the run gets a fresh live session; pass
    ``NULL_TELEMETRY`` for an untraced run."""
    built = build_workload(workload, mem_scale=CI.mem_scale)
    telemetry = Telemetry() if telemetry is None else telemetry
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
        assert NULL_SPANS.context() is None

    def test_every_live_session_records_spans(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        assert telemetry_from_env() is NULL_TELEMETRY
        assert NULL_TELEMETRY.spans is NULL_SPANS
        monkeypatch.setenv("REPRO_TRACE", "1")
        session = telemetry_from_env()
        assert session.spans.enabled and session.trace_path is None

    def test_session_parents_under_the_propagated_context(
            self, monkeypatch):
        parent = SpanRecorder()
        with parent.span("phase_b"):
            context = parent.context()
        monkeypatch.setenv("REPRO_SPAN_PARENT", context.encode())
        session = Telemetry()
        with session.span("cluster 0"):
            pass
        (record,) = session.spans.records
        assert record["parent"] == context.parent_id


class TestTreeShapeDeterminism:
    """The acceptance property: the span tree is a deterministic function
    of the run, not of worker scheduling."""

    def test_serial_vs_sharded_shapes_match(self):
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

    def test_serial_tree_names_the_pipeline(self):
        _, snapshot = run_sampled(1)
        roots = build_span_tree(snapshot.spans)
        assert [node["name"] for node in roots] == ["run"]
        child_names = {child["name"] for child in roots[0]["children"]}
        assert "cluster 0" in child_names
        cluster = next(child for child in roots[0]["children"]
                       if child["name"] == "cluster 0")
        phases = {grand["name"] for grand in cluster["children"]}
        assert {"cold_skip", "reconstruct", "hot_sim"} <= phases

    @pytest.mark.parametrize("workload", ["ammp", "gcc", "mcf"])
    def test_spans_off_is_bit_identical(self, workload):
        plain, plain_snap = run_sampled(1, workload=workload,
                                        telemetry=NULL_TELEMETRY)
        traced, traced_snap = run_sampled(1, workload=workload)
        assert plain.cluster_ipcs == traced.cluster_ipcs
        assert plain.estimate.mean == traced.estimate.mean
        assert plain_snap is None
        assert "telemetry" not in plain.extra
        assert traced_snap.spans


class TestChromeExport:
    def test_export_passes_checked_in_schema(self):
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
        append_trace([{"type": "cluster", "index": 0},
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

    def test_session_file_shares_the_tolerance(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        session = Telemetry(trace_path=str(path))
        with session.span("run"):
            pass
        session.flush()
        with open(path, "a") as fh:
            fh.write('{"type": "span", "id": "1:1')
        assert [r["name"] for r in read_trace(str(path))] == ["run"]
        assert "truncated final record" in capsys.readouterr().err


def _traced_to(path, monkeypatch):
    """One ci-tier sampled run with REPRO_TRACE naming `path`."""
    monkeypatch.setenv("REPRO_TRACE", str(path))
    built = build_workload("ammp", mem_scale=CI.mem_scale)
    SampledSimulator(
        built, CI.regimen(), CI.configs(),
        warmup_prefix=CI.warmup_prefix, detail_ramp=CI.detail_ramp,
    ).run(resolve_method("R$BP (20%)"))
    return read_trace(str(path))


class TestRecordFile:
    """REPRO_TRACE=PATH: every record of a run in one JSON-lines file."""

    def test_run_writes_every_record_type(self, monkeypatch, tmp_path):
        records = _traced_to(tmp_path / "trace.jsonl", monkeypatch)
        kinds = [record["type"] for record in records]
        assert {"span", "counter"} <= set(kinds)
        runs = [kind for kind in kinds if kind not in ("span", "counter")]
        assert runs[0] == "run_start"
        assert runs[-1] == "run_end"
        assert runs.count("cluster") == CI.regimen().num_clusters
        assert "run" in {r["name"] for r in records if r["type"] == "span"}

    def test_records_stamp_ambient_run_id(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUN_ID", "rfirehose1")
        records = _traced_to(tmp_path / "trace.jsonl", monkeypatch)
        assert records and all(
            record["run_id"] == "rfirehose1" for record in records)

    def test_no_run_id_field_without_ambient_id(self, monkeypatch,
                                                tmp_path):
        monkeypatch.delenv("REPRO_RUN_ID", raising=False)
        records = _traced_to(tmp_path / "trace.jsonl", monkeypatch)
        assert all("run_id" not in record for record in records)

    def test_cluster_boundary_appends_pending_records(self, tmp_path):
        # tail -f shows progress cluster by cluster: the record is in
        # the file as soon as its cluster closes, not at the run's end.
        path = tmp_path / "trace.jsonl"
        session = Telemetry(trace_path=str(path))
        session.begin_cluster()
        session.end_cluster({"workload": "w", "method": "m", "cluster": 0})
        clusters = [r for r in read_trace(str(path))
                    if r["type"] == "cluster"]
        assert [r["cluster"] for r in clusters] == [0]
        assert session.flush() == 0

    def test_memory_mode_writes_no_file(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert main(["sample", "gcc", "--method", "rsr"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_matrix_writes_one_complete_file(self, monkeypatch, tmp_path,
                                             capsys):
        """A traced two-worker grid: every record type in one file, spans
        from the driver and a pool worker, progress that reaches its
        total, and exactly the merged snapshot's cluster records."""
        from repro.harness import parallel

        merged = []

        def capture(grid):
            merged.append(real(grid))
            return merged[-1]

        real = parallel.merged_telemetry
        monkeypatch.setattr(parallel, "merged_telemetry", capture)
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        path = tmp_path / "trace.jsonl"
        assert main(["matrix", "--scale", "ci", "--jobs", "2",
                     "--workload", "gcc", "--method", "rsr",
                     "--method", "smarts", "--cache", "off", "--quiet",
                     "--trace", str(path)]) == 0
        capsys.readouterr()
        records = read_trace(str(path))
        assert {r["type"] for r in records} == {
            "cluster", "span", "counter", "run_start", "run_end", "cell"}
        assert len({r["pid"] for r in records if r["type"] == "span"}) >= 2
        cells = [r for r in records if r["type"] == "cell"]
        assert cells[-1]["completed"] == cells[-1]["total"] == 3

        def clusters(rows):
            return sorted((r for r in rows if r["type"] == "cluster"),
                          key=lambda r: (r["workload"], r["method"],
                                         r["cluster"]))

        assert clusters(records) == clusters(merged[0].trace_records)
        assert len(clusters(records)) == 2 * CI.regimen().num_clusters

    def test_cache_served_grid_writes_a_complete_file(
            self, monkeypatch, tmp_path, capsys):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        argv = ["matrix", "--scale", "ci", "--jobs", "1", "--workload",
                "gcc", "--method", "rsr", "--quiet",
                "--cache", str(tmp_path / "cache")]
        files = {}
        for name in ("cold", "warm"):
            files[name] = tmp_path / f"{name}.jsonl"
            assert main(argv + ["--trace", str(files[name])]) == 0
        capsys.readouterr()

        def kept(name):
            return [r for r in read_trace(str(files[name]))
                    if r["type"] in ("cluster", "run_start", "run_end")]

        def without_run_id(records):
            return [{key: value for key, value in record.items()
                     if key != "run_id"} for record in records]

        # The cached cell's records are the cold run's, stamped with the
        # run_id of the invocation that serves them.
        assert without_run_id(kept("warm")) == without_run_id(
            kept("cold")) != []
        warm = read_trace(str(files["warm"]))
        warm_ids = {record.get("run_id") for record in warm}
        cold_ids = {record.get("run_id")
                    for record in read_trace(str(files["cold"]))}
        assert len(warm_ids) == 1 and None not in warm_ids
        assert warm_ids != cold_ids
        cells = [r for r in warm if r["type"] == "cell"]
        assert all(cell["cached"] for cell in cells)

    def test_failed_append_warns_once_per_path(self, tmp_path, capsys):
        # A directory path makes every append raise OSError; the writer
        # must warn on the first failure and then go quiet, and leave
        # the records pending.
        dead = tmp_path / "not-a-file"
        dead.mkdir()
        assert append_trace([{"type": "cluster", "cluster": 0}],
                            str(dead)) == 0
        assert append_trace([{"type": "cluster", "cluster": 1}],
                            str(dead)) == 0
        err = capsys.readouterr().err
        assert err.count("cannot append records") == 1
        assert str(dead) in err


class TestRunReport:
    def test_report_renders_spans_and_audit(self):
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
        html = render_report(snapshot.spans, audit=audit)
        assert "<svg" in html
        assert "Span timeline" in html
        assert "Accuracy audit" in html

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
    def test_matrix_parser_accepts_progress_and_trace(self):
        args = build_parser().parse_args(
            ["matrix", "--progress", "--trace", "trace.jsonl"])
        assert args.progress
        assert args.trace == "trace.jsonl"

    @pytest.mark.parametrize("argv", (
        ["matrix", "--spans", "spans.jsonl"],
        ["report", "--spans", "spans.jsonl"],
    ), ids=("matrix", "report"))
    def test_spans_flag_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2

    def test_trace_export_parser(self):
        args = build_parser().parse_args(
            ["trace", "export", "trace.jsonl", "--format", "jsonl"])
        assert args.command == "trace"
        assert args.action == "export"
        assert args.format == "jsonl"

    def test_trace_export_writes_validated_chrome_json(
            self, tmp_path, capsys):
        # A mixed record file: export keeps the spans and counters.
        trace_path = tmp_path / "trace.jsonl"
        session = Telemetry(trace_path=str(trace_path))
        with session.span("run"):
            with session.span("cluster 0", cluster=0):
                session.begin_cluster()
                session.spans.counter("log.stored_records", 3)
                session.end_cluster({"workload": "w", "method": "m",
                                     "cluster": 0})
        session.flush()
        out_path = tmp_path / "trace.chrome.json"
        assert main(["trace", "export", str(trace_path),
                     "-o", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert validate_chrome_trace(payload) == []
        assert {event["name"] for event in payload["traceEvents"]
                if event["ph"] == "X"} == {"run", "cluster 0"}
        assert "perfetto" in capsys.readouterr().out

    def test_trace_export_rejects_overlapping_lane(self, tmp_path, capsys):
        # Two spans in one (pid, tid) lane that neither nest nor are
        # disjoint: the schema holds, the timeline does not.
        trace_path = tmp_path / "trace.jsonl"
        spans = [("a", "1", 0, 10_000), ("b", "2", 5_000, 10_000)]
        trace_path.write_text("".join(
            json.dumps({"type": "span", "name": name, "id": span_id,
                        "pid": 7, "tid": 3, "ts": ts, "dur": dur}) + "\n"
            for name, span_id, ts, dur in spans))
        assert main(["trace", "export", str(trace_path),
                     "-o", str(tmp_path / "trace.chrome.json")]) == 1
        err = capsys.readouterr().err
        assert "lane pid=7 tid=3" in err and "straddles" in err

    def test_report_command_writes_html(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        session = Telemetry(trace_path=str(trace_path))
        with session.span("run"):
            pass
        session.flush()
        out_path = tmp_path / "report.html"
        assert main(["report", "--trace", str(trace_path),
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
