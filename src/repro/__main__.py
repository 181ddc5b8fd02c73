"""Command-line interface: ``python -m repro <command>``.

Commands
--------
workloads
    List the built-in SPEC2000-like workloads.
methods
    List the warm-up methods in the registry (Table 2 names plus any
    registered via :func:`repro.warmup.register_method`).
true-ipc WORKLOAD
    Full-trace detailed simulation (the accuracy baseline).
sample WORKLOAD [--method NAME]...
    Sampled simulation with one or more warm-up methods.
compare WORKLOAD
    The full Table 2 method comparison on one workload.
simpoint WORKLOAD
    SimPoint analysis and simulation (paper Figure 9 style).
matrix (alias: reproduce)
    The full evaluation grid through the parallel engine, with on-disk
    result caching (``--jobs``, ``--cache``, ``--method``, ``--workload``;
    see docs/parallel-execution.md).
profile WORKLOAD
    Sampled simulation with telemetry enabled: phase breakdown
    (cold_skip / reconstruct / hot_sim), per-structure update counts, and
    per-method trace totals (see docs/observability.md).
audit WORKLOAD
    Accuracy audit: per-cluster divergence of reconstructed state from a
    perfectly warmed reference (cache/PHT/BTB/RAS agreement, inference
    ambiguity) and the cold-start vs sampling split of each cluster's
    IPC error.
cache stats | cache gc --max-bytes N
    Inspect or prune the on-disk persistence layers: the result cache
    and the Phase A checkpoint store (entry counts, bytes, oldest-first
    eviction; see docs/checkpoint-store.md).
serve
    Start the long-running simulation service: a JSON HTTP API
    accepting sample/matrix/audit jobs, with per-tenant quotas and
    result-cache read-through (see docs/parallel-execution.md).
submit KIND
    Submit a job to a running service and (by default) wait for the
    result.
trace export TRACE
    Convert the span and counter records of a ``--trace`` /
    ``REPRO_TRACE`` file into Chrome trace-event JSON (loadable in
    Perfetto / chrome://tracing) or normalized JSONL.
metrics TRACE
    Render a completed run's ``REPRO_TRACE`` records as Prometheus text
    exposition — the offline twin of the service's ``GET /metrics``
    (see docs/observability.md).
report
    Render a self-contained HTML run report (span timeline, audit error
    bars, benchmark trajectory) from a record file and optional audit /
    trajectory JSON (see docs/observability.md).

All commands accept ``--scale {ci,bench,default,full}`` (or the
``REPRO_EXPERIMENT_SCALE`` environment variable) to pick the experiment
tier.  ``sample``, ``compare``, ``matrix``, and ``profile`` accept
``--trace PATH`` (``REPRO_TRACE``, the one recording switch) to write
every record of the run — clusters, spans, counters, run and cell
progress — to one JSON-lines file, and
``sample``, ``matrix``, and ``profile`` accept ``--cluster-jobs N`` (or
``REPRO_CLUSTER_JOBS``) to run shardable methods through the two-phase
pipeline with N hot-shard workers (see docs/parallel-execution.md).
``sample``, ``matrix``, ``profile``, and ``serve`` accept ``--store``
(or ``REPRO_CHECKPOINT_STORE``) to persist and reuse Phase A cold scans
across runs (see docs/checkpoint-store.md).

Every invocation mints one correlation ``run_id`` (unless ``REPRO_RUN_ID``
is already set) and plants it for the run's extent, so the records
produced anywhere — including worker processes — grep
under one id (see docs/observability.md).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .harness import (
    SCALES,
    format_table,
    options_from_env,
    scale_from_env,
    true_run_for,
)
from .sampling import SampledSimulator
from .simpoint import run_simpoints, select_simpoints
from .telemetry import bound_run_id, mint_run_id
from .warmup import (
    SmartsWarmup,
    paper_method_names,
    registered_method_names,
    resolve_method,
)
from .workloads import available_workloads, build_workload


def _add_scale_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default=None,
        help="experiment tier (default: REPRO_EXPERIMENT_SCALE or 'bench')",
    )


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write every record of the run (clusters, spans, counters, "
             "run and cell progress) to the JSON-lines file PATH, like "
             "REPRO_TRACE=PATH, and print the telemetry profile",
    )


def _add_cluster_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cluster-jobs", type=int, default=None, metavar="N",
        help="hot-shard workers for the two-phase pipeline (shardable "
             "methods only; 0 = one per CPU; default: "
             "REPRO_CLUSTER_JOBS or 1 = serial)",
    )


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="checkpoint store for Phase A read-through: 'on' (the "
             "default directory), 'off', or a store directory path "
             "(default: REPRO_CHECKPOINT_STORE or off; see "
             "docs/checkpoint-store.md)",
    )


def _resolve_scale(args):
    # main() builds the validated RunOptions once (flags folded in);
    # handlers invoked directly in tests fall back to flag/env reads.
    options = getattr(args, "options", None)
    if options is not None:
        return options.scale_obj()
    if args.scale:
        return SCALES[args.scale]
    return scale_from_env()


def _options_for(args):
    """The entry-point RunOptions (or a freshly validated fallback)."""
    options = getattr(args, "options", None)
    if options is not None:
        return options
    return options_from_env(
        scale=getattr(args, "scale", None),
        matrix_jobs=getattr(args, "jobs", None),
        cluster_jobs=getattr(args, "cluster_jobs", None),
        checkpoint_store=getattr(args, "store", None),
    )


def _simulator(workload, scale, telemetry=None, cluster_jobs=None):
    return SampledSimulator(
        workload, scale.regimen(), scale.configs(),
        warmup_prefix=scale.warmup_prefix,
        detail_ramp=scale.detail_ramp,
        telemetry=telemetry,
        cluster_jobs=cluster_jobs,
    )


@contextlib.contextmanager
def _env_overrides(overrides: dict):
    """Set environment variables for a block, restoring them after.

    A None value leaves that variable untouched.
    """
    sentinel = object()
    saved = {}
    for name, value in overrides.items():
        if value is None:
            continue
        saved[name] = os.environ.get(name, sentinel)
        os.environ[name] = value
    try:
        yield
    finally:
        for name, previous in saved.items():
            if previous is sentinel:
                os.environ.pop(name, None)
            else:
                os.environ[name] = previous


def _session_factory():
    """A fresh live telemetry session per run, writing to the
    ``REPRO_TRACE`` path when one is set (for commands that always
    collect)."""
    import functools

    from .telemetry import Telemetry, trace_path_from_env

    return functools.partial(Telemetry, trace_path=trace_path_from_env())


def _report_telemetry(snapshots, trace, title="Telemetry profile"):
    """Merge per-run snapshots and print the profile."""
    from .harness import format_telemetry_summary
    from .telemetry import merge_snapshots, trace_path

    merged = merge_snapshots(snapshots)
    if merged is None or merged.is_empty():
        return
    path = trace_path(trace)
    if path is not None:
        print(f"\nrecords written to {path} "
              f"(export spans with: repro trace export {path})")
    print()
    print(format_telemetry_summary(merged, title=title))


def cmd_workloads(_args) -> int:
    rows = []
    for name in available_workloads():
        workload = build_workload(name)
        rows.append([
            name,
            str(len(workload.program)),
            str(workload.memory.footprint_words()),
            workload.description,
        ])
    print(format_table(
        ["name", "instructions", "data words", "description"], rows,
        title="Built-in workloads",
    ))
    return 0


def cmd_methods(_args) -> int:
    rows = []
    for name in registered_method_names():
        method = resolve_method(name)
        rows.append([
            name,
            type(method).__name__,
            "yes" if method.shardable else "no",
        ])
    print(format_table(
        ["name", "class", "shardable"], rows,
        title="Registered warm-up methods "
              "(aliases 'rsr' and 'smarts' also resolve)",
    ))
    return 0


def cmd_true_ipc(args) -> int:
    scale = _resolve_scale(args)
    true_run = true_run_for(args.workload, scale)
    print(f"{args.workload}: true IPC = {true_run.ipc:.4f} "
          f"({true_run.instructions} instructions, "
          f"{true_run.wall_seconds:.1f}s)")
    return 0


def cmd_sample(args) -> int:
    scale = _resolve_scale(args)
    workload = build_workload(args.workload, mem_scale=scale.mem_scale)
    true_run = true_run_for(args.workload, scale)
    # A --trace path rides REPRO_TRACE (main() plants it): each
    # method's run gets a fresh session that appends to the file.
    trace = getattr(args, "trace", None)
    simulator = _simulator(workload, scale,
                           cluster_jobs=getattr(args, "cluster_jobs", None))
    results = []
    rows = []
    for method_name in args.method:
        result = simulator.run(resolve_method(method_name))
        results.append(result)
        rows.append([
            result.method_name,
            f"{result.estimate.mean:.4f}",
            f"{result.relative_error(true_run.ipc) * 100:.2f}%",
            "yes" if result.passes_confidence_test(true_run.ipc) else "no",
            f"{result.cost.warm_updates():,}",
            f"{result.wall_seconds:.2f}s",
        ])
    print(format_table(
        ["method", "IPC", "rel. error", "95% CI", "warm updates", "time"],
        rows,
        title=f"{args.workload}: true IPC {true_run.ipc:.4f} — "
              f"{scale.regimen().describe()}",
    ))
    if trace:
        _report_telemetry(
            (result.extra.get("telemetry") for result in results),
            trace,
            title=f"{args.workload} telemetry ({scale.name} tier)",
        )
    return 0


def cmd_compare(args) -> int:
    args.method = paper_method_names()
    return cmd_sample(args)


def cmd_simpoint(args) -> int:
    scale = _resolve_scale(args)
    workload = build_workload(args.workload, mem_scale=scale.mem_scale)
    true_run = true_run_for(args.workload, scale)
    rows = []
    for interval in (scale.cluster_size // 2, scale.cluster_size * 8):
        selection = select_simpoints(
            workload, scale.total_instructions, interval,
            max_points=args.points,
        )
        for warmup in (None, SmartsWarmup()):
            result = run_simpoints(
                workload, selection, warmup=warmup,
                configs=scale.configs(),
            )
            rows.append([
                f"{interval}",
                str(len(selection.points)),
                result.method_name,
                f"{result.ipc:.4f}",
                f"{result.relative_error(true_run.ipc) * 100:.2f}%",
            ])
    print(format_table(
        ["interval", "points", "config", "IPC", "rel. error"],
        rows,
        title=f"{args.workload}: SimPoint vs true IPC {true_run.ipc:.4f}",
    ))
    return 0


def cmd_design(args) -> int:
    scale = _resolve_scale(args)
    from .sampling import recommend_regimen

    workload = build_workload(args.workload, mem_scale=scale.mem_scale)
    recommendation = recommend_regimen(
        workload, scale.total_instructions, scale.cluster_size,
        target_relative_error=args.target_error,
        configs=scale.configs(), warmup_prefix=scale.warmup_prefix,
    )
    print(format_table(
        ["quantity", "value"],
        [
            ["pilot clusters", str(recommendation.pilot_clusters)],
            ["pilot mean IPC", f"{recommendation.pilot_mean_ipc:.4f}"],
            ["pilot cluster std-dev",
             f"{recommendation.pilot_std_dev:.4f}"],
            ["target relative error",
             f"{recommendation.target_relative_error:.1%}"],
            ["recommended clusters",
             str(recommendation.recommended_clusters)],
            ["predicted ±95% bound",
             f"{recommendation.predicted_error_bound:.4f}"],
        ],
        title=f"Regimen design for {args.workload} "
              f"(cluster size {scale.cluster_size})",
    ))
    return 0


def _check_writable(path) -> None:
    """Raise now if output `path` cannot be written once the run is
    done, so a bad ``--output`` or ``--trace`` costs no cells (main()
    turns it into a one-line error and exit 2)."""
    if not path:
        return
    existed = os.path.exists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.unlink(path)


def cmd_matrix(args) -> int:
    """Run the evaluation grid through the parallel engine."""
    import time

    from .api import _RegistrySuite
    from .harness import (
        LiveProgress,
        console_progress,
        execute_matrix,
        format_per_workload,
        save_matrix,
    )
    from .warmup import paper_method_suite
    from .workloads import available_workloads

    if args.output:
        from .harness.export import matrix_format

        matrix_format(args.output)  # a bad extension costs no cells
    _check_writable(args.output)
    options = _options_for(args)
    scale = options.scale_obj()
    workloads = tuple(args.workload) if args.workload else available_workloads()
    if args.method:
        # Registry names are validated here, before any worker process
        # launches; an unknown name raises the registry's ValueError and
        # exits with status 2 from main().
        suite_factory = _RegistrySuite(tuple(args.method))
        display_names = []
        for name in args.method:
            canonical = resolve_method(name).name
            if canonical not in display_names:
                display_names.append(canonical)
    else:
        suite_factory = paper_method_suite
        display_names = paper_method_names()
    cache = options.store(None if args.cache == "auto" else args.cache,
                          layer="results", default="on")
    if args.quiet:
        progress = None
    elif args.progress:
        progress = LiveProgress()
    else:
        progress = console_progress
    start = time.perf_counter()
    # Resolved in the parent (explicit flag, else REPRO_CLUSTER_JOBS) so
    # the value lands in every CellSpec — and hence the cache keys —
    # before any worker launches; a bad value exits 2 below.
    cluster_jobs = options.resolved_cluster_jobs()
    # A --trace path rides REPRO_TRACE (main() plants it): the grid
    # driver's session owns the file, its cells collect in memory.
    matrix = execute_matrix(
        suite_factory,
        workload_names=workloads,
        scale=scale,
        jobs=options.matrix_jobs,
        cache=cache,
        progress=progress,
        cluster_jobs=cluster_jobs,
    )
    elapsed = time.perf_counter() - start
    print(format_per_workload(
        matrix, display_names, value="error",
        title=f"Relative error ({scale.name} tier)",
    ))
    print()
    print(format_per_workload(
        matrix, display_names, value="ci",
        title="95% confidence tests",
    ))
    jobs = options.resolved_matrix_jobs()
    summary = f"\ngrid completed in {elapsed:.1f}s ({jobs} jobs"
    if cache is not None:
        summary += f"; cache at {cache.root}: {cache.stats}"
    print(summary + ")")
    if args.trace:
        from .harness import merged_telemetry
        merged = merged_telemetry(matrix)
        _report_telemetry(
            [merged], args.trace,
            title=f"Grid telemetry ({scale.name} tier)",
        )
    if args.output:
        save_matrix(matrix, args.output)
        print(f"full grid written to {args.output}")
    return 0


def cmd_profile(args) -> int:
    """Phase breakdown of one workload's sampled simulation."""
    from .harness import format_telemetry_summary
    from .telemetry import merge_snapshots, trace_path

    scale = _resolve_scale(args)
    workload = build_workload(args.workload, mem_scale=scale.mem_scale)
    simulator = _simulator(workload, scale, telemetry=_session_factory(),
                           cluster_jobs=getattr(args, "cluster_jobs", None))
    methods = args.method or ["S$BP", "R$BP (100%)"]
    snapshots = []
    for method_name in methods:
        result = simulator.run(resolve_method(method_name))
        snapshots.append(result.extra.get("telemetry"))
    merged = merge_snapshots(snapshots)
    title = (f"{args.workload} profile ({scale.name} tier, "
             f"{scale.regimen().describe()})")
    if merged is None or merged.is_empty():
        # A headers-only run (empty regimen, zero clusters) has nothing
        # to tabulate; say so readably instead of printing ragged tables.
        print(f"{title}\n\nno clusters recorded")
        return 0
    print(format_telemetry_summary(merged, title=title))
    if trace_path(args.trace) is not None:
        print(f"\nrecords written to {args.trace}")
    return 0


def cmd_audit(args) -> int:
    """Per-cluster accuracy audit: bias attribution vs a warm reference."""
    from .harness import format_audit_report, save_audit
    from .telemetry import AUDIT_ENV_VAR, merge_snapshots

    scale = _resolve_scale(args)
    workload = build_workload(args.workload, mem_scale=scale.mem_scale)
    methods = args.method or ["S$BP", "R$BP (100%)"]
    snapshots = []
    with _env_overrides({AUDIT_ENV_VAR: "1"}):
        simulator = _simulator(workload, scale,
                               telemetry=_session_factory())
        for method_name in methods:
            result = simulator.run(resolve_method(method_name))
            snapshots.append(result.extra.get("telemetry"))
    merged = merge_snapshots(snapshots)
    print(format_audit_report(
        merged,
        title=f"{args.workload} accuracy audit ({scale.name} tier, "
              f"{scale.regimen().describe()})",
    ))
    if args.json:
        save_audit(merged, args.json)
        print(f"\naudit JSON written to {args.json}")
    return 0


def cmd_trace(args) -> int:
    """Convert a record file's spans and counters for trace viewers."""
    from .telemetry import (
        RECORD_COUNTER,
        RECORD_SPAN,
        read_trace,
        spans_to_jsonl,
        validate_chrome_trace,
        write_chrome_trace,
    )

    records = [r for r in read_trace(args.input)
               if r.get("type") in (RECORD_SPAN, RECORD_COUNTER)]
    span_count = sum(1 for r in records if r.get("type") == RECORD_SPAN)
    counter_count = len(records) - span_count
    if span_count == 0:
        print(f"warning: no span records in {args.input} "
              f"(was the run executed with REPRO_TRACE or --trace set?)",
              file=sys.stderr)
    if args.format == "chrome":
        output = args.output or "trace.chrome.json"
        events = write_chrome_trace(records, output)
        import json
        with open(output, "r", encoding="utf-8") as stream:
            errors = validate_chrome_trace(json.load(stream))
        if errors:
            for error in errors:
                print(f"error: {error}", file=sys.stderr)
            return 1
        print(f"{events} trace events ({span_count} spans, "
              f"{counter_count} counter samples) written to {output}")
        print("open in https://ui.perfetto.dev or chrome://tracing")
    else:
        output = args.output or "trace.norm.jsonl"
        with open(output, "w", encoding="utf-8") as stream:
            stream.write(spans_to_jsonl(records))
        print(f"{span_count + counter_count} normalized records "
              f"written to {output}")
    return 0


def cmd_metrics(args) -> int:
    """Render a completed run's trace as Prometheus text exposition."""
    from .telemetry import (
        exposition_from_records,
        parse_exposition,
        read_trace,
    )

    records = read_trace(args.input)
    if not records:
        print(f"warning: no records in {args.input} "
              f"(was the run executed with REPRO_TRACE or --trace set?)",
              file=sys.stderr)
    text = exposition_from_records(records).render()
    # Self-check: whatever we print must satisfy the same strict parser
    # the CI smoke job runs against the service's live /metrics.
    parse_exposition(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as stream:
            stream.write(text)
        print(f"metrics exposition ({len(records)} records) "
              f"written to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_report(args) -> int:
    """Render the self-contained HTML run report."""
    import json

    from .harness.report import render_report
    from .telemetry import read_trace

    records = read_trace(args.input) if args.input else []

    def load(path, label):
        if not path:
            return None
        try:
            with open(path, "r", encoding="utf-8") as stream:
                return json.load(stream)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"warning: skipping {label} ({exc})", file=sys.stderr)
            return None

    html = render_report(
        spans=records,
        audit=load(args.audit, "audit JSON"),
        trajectory=load(args.trajectory, "trajectory JSON"),
        title=args.title,
    )
    with open(args.output, "w", encoding="utf-8") as stream:
        stream.write(html)
    print(f"run report written to {args.output}")
    return 0


def cmd_cache(args) -> int:
    """Inspect or prune the on-disk persistence layers.

    ``stats`` tabulates entry counts and bytes for the result cache and
    the checkpoint store; ``gc --max-bytes N`` evicts oldest-mtime
    entries from the selected layer(s) until each fits the budget.
    Both resolve the layers exactly like a run would (flags, then the
    ``REPRO_RESULT_CACHE`` / ``REPRO_CHECKPOINT_STORE`` environment,
    then the default directories).
    """
    from .store import LAYERS

    options = _options_for(args)
    settings = {"results": None if args.cache == "auto" else args.cache,
                "checkpoints": args.store}
    layers = []
    for name, setting in settings.items():
        store = options.store(setting, layer=name, default="on")
        if store is not None:
            layers.append((name, store, LAYERS[name][1]))
    if args.action == "stats":
        rows = [
            [name, str(store.root), str(store.entry_count(kinds)),
             f"{store.total_bytes(kinds):,}"]
            for name, store, kinds in layers
        ]
        print(format_table(
            ["layer", "root", "entries", "bytes"], rows,
            title="On-disk persistence layers",
        ))
        return 0
    # gc: a negative budget is bad user input — ValueError maps to the
    # CLI's readable exit-2 diagnostic in main().
    if args.max_bytes < 0:
        raise ValueError(
            f"--max-bytes must be >= 0, got {args.max_bytes}")
    selected = [layer for layer in layers if args.layer in ("all", layer[0])]
    if not selected:
        raise ValueError(
            f"layer {args.layer!r} is disabled "
            f"(resolved to no directory); nothing to prune")
    for name, store, kinds in selected:
        removed = store.gc(args.max_bytes, kinds)
        print(f"{name}: evicted {len(removed)} of "
              f"{len(removed) + store.entry_count(kinds)} entries from "
              f"{store.root} ({store.total_bytes(kinds):,} bytes remain)")
    return 0


def cmd_serve(args) -> int:
    """Run the long-running simulation service until interrupted."""
    import time

    from .service import SimulationService

    options = _options_for(args)
    service = SimulationService(
        options=options,
        cache=None if args.cache == "auto" else args.cache,
        max_pending_per_tenant=args.quota,
        host=args.host,
        port=args.port,
    )
    service.start()
    print(f"simulation service listening on {service.url}")
    print(f"scale: {options.scale}; "
          f"quota: {args.quota} pending job(s) per tenant")
    if service.log.enabled:
        print(f"records (runs, access, jobs): {service.log.path}")
    print(f"metrics: GET {service.url}/metrics")
    print(f"submit with: repro submit --url {service.url} sample "
          f"--workload gcc")
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        service.stop()
    return 0


def cmd_submit(args) -> int:
    """Submit one job to a running service; wait unless --no-wait."""
    import json
    import urllib.error

    from .api import RunRequest
    from .service import ServiceClient, ServiceError

    request = RunRequest(
        kind=args.kind,
        workloads=tuple(args.workload or ()),
        methods=tuple(args.method or ()),
        design=args.scale,
        cluster_jobs=(args.cluster_jobs
                      if args.cluster_jobs is not None else 1),
        jobs=args.jobs,
    )
    client = ServiceClient(args.url, timeout=min(args.timeout, 60.0))
    try:
        job_id = client.submit(request, tenant=args.tenant)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (urllib.error.URLError, OSError) as exc:
        print(f"error: cannot reach service at {args.url} ({exc}); "
              f"is 'repro serve' running?", file=sys.stderr)
        return 1
    print(f"submitted {job_id} ({request.kind}, design {request.design}) "
          f"to {args.url}")
    if args.no_wait:
        print(f"poll with: GET {args.url}/results/{job_id}")
        return 0
    try:
        result = client.result(job_id, timeout=args.timeout)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    origin = "cache" if result.cached else "fresh run"
    if request.kind == "audit":
        size = f"{len(result.payload['reports'])} report(s)"
    else:
        size = f"{len(result.payload['rows'])} row(s)"
    print(f"{job_id} done: {size} from {origin} "
          f"in {result.wall_seconds:.2f}s")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as stream:
            json.dump(result.to_payload(), stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"result JSON written to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reverse State Reconstruction reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "workloads", help="list built-in workloads",
    ).set_defaults(handler=cmd_workloads)

    subparsers.add_parser(
        "methods", help="list registered warm-up methods",
    ).set_defaults(handler=cmd_methods)

    true_parser = subparsers.add_parser(
        "true-ipc", help="full-trace detailed simulation",
    )
    true_parser.add_argument("workload", choices=available_workloads())
    _add_scale_argument(true_parser)
    true_parser.set_defaults(handler=cmd_true_ipc)

    sample_parser = subparsers.add_parser(
        "sample", help="sampled simulation with chosen warm-up methods",
    )
    sample_parser.add_argument("workload", choices=available_workloads())
    sample_parser.add_argument(
        "--method", action="append",
        default=None,
        help="Table 2 method name (repeatable); default: S$BP and "
             "R$BP (20%%)",
    )
    _add_scale_argument(sample_parser)
    _add_trace_argument(sample_parser)
    _add_cluster_jobs_argument(sample_parser)
    _add_store_argument(sample_parser)
    sample_parser.set_defaults(handler=cmd_sample)

    compare_parser = subparsers.add_parser(
        "compare", help="all sixteen Table 2 methods on one workload",
    )
    compare_parser.add_argument("workload", choices=available_workloads())
    _add_scale_argument(compare_parser)
    _add_trace_argument(compare_parser)
    compare_parser.set_defaults(handler=cmd_compare)

    simpoint_parser = subparsers.add_parser(
        "simpoint", help="SimPoint analysis on one workload",
    )
    simpoint_parser.add_argument("workload", choices=available_workloads())
    simpoint_parser.add_argument("--points", type=int, default=15)
    _add_scale_argument(simpoint_parser)
    simpoint_parser.set_defaults(handler=cmd_simpoint)

    design_parser = subparsers.add_parser(
        "design", help="pilot-study regimen recommendation",
    )
    design_parser.add_argument("workload", choices=available_workloads())
    design_parser.add_argument("--target-error", type=float, default=0.03)
    _add_scale_argument(design_parser)
    design_parser.set_defaults(handler=cmd_design)

    matrix_parser = subparsers.add_parser(
        "matrix", aliases=["reproduce"],
        help="run the evaluation grid (with no filters, the full 16x9 "
             "paper grid; 'reproduce' is an alias)",
    )
    matrix_parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: all cores; 1 = serial in-process)",
    )
    matrix_parser.add_argument(
        "--cache", default="auto",
        help="result cache: 'auto' (REPRO_RESULT_CACHE or the default "
             "directory), 'off', or a cache directory path",
    )
    matrix_parser.add_argument(
        "--workload", action="append", choices=available_workloads(),
        default=None,
        help="restrict the grid to this workload (repeatable; default: all)",
    )
    matrix_parser.add_argument(
        "--method", action="append", default=None,
        help="restrict the grid to this registered method name or alias "
             "(repeatable; default: the full Table 2 suite)",
    )
    matrix_parser.add_argument(
        "--output", default=None,
        help="also export the grid (.csv or .json)",
    )
    matrix_parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-cell progress lines",
    )
    matrix_parser.add_argument(
        "--progress", action="store_true",
        help="live streaming progress (done/total, cells/sec, ETA) "
             "instead of one line per cell",
    )
    _add_scale_argument(matrix_parser)
    _add_trace_argument(matrix_parser)
    _add_cluster_jobs_argument(matrix_parser)
    _add_store_argument(matrix_parser)
    matrix_parser.set_defaults(handler=cmd_matrix)

    cache_parser = subparsers.add_parser(
        "cache",
        help="inspect or prune the result cache and checkpoint store",
    )
    cache_actions = cache_parser.add_subparsers(dest="action",
                                                required=True)
    cache_stats_parser = cache_actions.add_parser(
        "stats", help="entry counts and bytes for both on-disk layers",
    )
    cache_gc_parser = cache_actions.add_parser(
        "gc", help="evict oldest-mtime entries down to a byte budget",
    )
    cache_gc_parser.add_argument(
        "--max-bytes", type=int, required=True, metavar="N",
        help="byte budget per selected layer (0 empties it)",
    )
    cache_gc_parser.add_argument(
        "--layer", choices=("results", "checkpoints", "all"),
        default="all",
        help="which layer to prune (default: all)",
    )
    for action_parser in (cache_stats_parser, cache_gc_parser):
        action_parser.add_argument(
            "--cache", default="auto",
            help="result cache: 'auto' (REPRO_RESULT_CACHE or the "
                 "default directory), 'off', or a directory path",
        )
        _add_store_argument(action_parser)
        action_parser.set_defaults(handler=cmd_cache)

    serve_parser = subparsers.add_parser(
        "serve", help="run the long-running simulation service",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=8642,
        help="bind port (default: 8642; 0 = any free port)",
    )
    serve_parser.add_argument(
        "--quota", type=int, default=4, metavar="N",
        help="max pending jobs per tenant before 429 (default: 4)",
    )
    serve_parser.add_argument(
        "--cache", default="auto",
        help="result cache: 'auto' (REPRO_RESULT_CACHE), 'off', 'on', "
             "or a cache directory path",
    )
    _add_scale_argument(serve_parser)
    _add_store_argument(serve_parser)
    serve_parser.set_defaults(handler=cmd_serve)

    submit_parser = subparsers.add_parser(
        "submit", help="submit a job to a running simulation service",
    )
    submit_parser.add_argument(
        "kind", choices=("sample", "matrix", "audit"),
        help="what to run: per-workload sampled rows, the full grid, "
             "or an accuracy audit",
    )
    submit_parser.add_argument(
        "--url", default="http://127.0.0.1:8642",
        help="service base URL (default: http://127.0.0.1:8642)",
    )
    submit_parser.add_argument(
        "--workload", action="append", choices=available_workloads(),
        default=None,
        help="workload to include (repeatable; default: all nine)",
    )
    submit_parser.add_argument(
        "--method", action="append", default=None,
        help="registered method name or alias (repeatable; default: "
             "the kind's standard suite)",
    )
    submit_parser.add_argument(
        "--jobs", type=int, default=None,
        help="matrix-cell workers on the service side",
    )
    submit_parser.add_argument(
        "--tenant", default="default",
        help="quota tenant to submit as (default: 'default')",
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=300.0,
        help="seconds to wait for the result (default: 300)",
    )
    submit_parser.add_argument(
        "--no-wait", action="store_true",
        help="submit and print the job id without polling for the result",
    )
    submit_parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the full result JSON to PATH",
    )
    _add_scale_argument(submit_parser)
    _add_cluster_jobs_argument(submit_parser)
    submit_parser.set_defaults(handler=cmd_submit)

    profile_parser = subparsers.add_parser(
        "profile",
        help="telemetry profile: phase timers and per-structure updates",
    )
    profile_parser.add_argument("workload", choices=available_workloads())
    profile_parser.add_argument(
        "--method", action="append", default=None,
        help="Table 2 method name (repeatable); default: S$BP and "
             "R$BP (100%%)",
    )
    _add_scale_argument(profile_parser)
    _add_trace_argument(profile_parser)
    _add_cluster_jobs_argument(profile_parser)
    _add_store_argument(profile_parser)
    profile_parser.set_defaults(handler=cmd_profile)

    audit_parser = subparsers.add_parser(
        "audit",
        help="accuracy audit: per-cluster state divergence and "
             "cold-start vs sampling error attribution",
    )
    audit_parser.add_argument("workload", choices=available_workloads())
    audit_parser.add_argument(
        "--method", action="append", default=None,
        help="Table 2 method name (repeatable); default: S$BP and "
             "R$BP (100%%)",
    )
    audit_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also export the audit report (summaries + per-cluster "
             "rows) as JSON to PATH",
    )
    _add_scale_argument(audit_parser)
    audit_parser.set_defaults(handler=cmd_audit)

    trace_parser = subparsers.add_parser(
        "trace",
        help="convert recorded spans for trace viewers "
             "(Perfetto / chrome://tracing)",
    )
    trace_parser.add_argument(
        "action", choices=("export",),
        help="what to do with the record file's spans",
    )
    trace_parser.add_argument(
        "input", metavar="TRACE",
        help="record file written via REPRO_TRACE or --trace",
    )
    trace_parser.add_argument(
        "--format", choices=("chrome", "jsonl"), default="chrome",
        help="chrome: trace-event JSON for Perfetto/chrome://tracing "
             "(default); jsonl: normalized timeline-sorted JSONL",
    )
    trace_parser.add_argument(
        "-o", "--output", default=None,
        help="output path (default: trace.chrome.json / trace.norm.jsonl)",
    )
    trace_parser.set_defaults(handler=cmd_trace)

    metrics_parser = subparsers.add_parser(
        "metrics",
        help="render a completed run's trace as Prometheus text "
             "exposition",
    )
    metrics_parser.add_argument(
        "input", metavar="TRACE",
        help="trace JSONL file recorded via REPRO_TRACE or --trace",
    )
    metrics_parser.add_argument(
        "-o", "--output", default=None,
        help="output path (default: stdout)",
    )
    metrics_parser.set_defaults(handler=cmd_metrics)

    report_parser = subparsers.add_parser(
        "report",
        help="render a self-contained HTML run report",
    )
    report_parser.add_argument(
        "--trace", dest="input", default=None, metavar="PATH",
        help="record file (REPRO_TRACE or --trace) for the timeline "
             "section",
    )
    report_parser.add_argument(
        "--audit", default=None, metavar="PATH",
        help="audit JSON ('repro audit --json') for per-cluster error bars",
    )
    report_parser.add_argument(
        "--trajectory", default=None, metavar="PATH",
        help="benchmarks/TRAJECTORY.json for the benchmark table",
    )
    report_parser.add_argument(
        "--title", default="repro run report",
        help="report title",
    )
    report_parser.add_argument(
        "-o", "--output", default="run-report.html",
        help="output HTML path (default: run-report.html)",
    )
    report_parser.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "sample" and args.method is None:
        args.method = ["S$BP", "R$BP (20%)"]
    try:
        # One validated RunOptions per invocation: every REPRO_* read
        # (and the flags that override them) funnels through here, so a
        # bad value fails now with a readable exit-2 diagnostic instead
        # of deep inside a worker process.
        trace = getattr(args, "trace", None)
        args.options = options_from_env(
            scale=getattr(args, "scale", None),
            matrix_jobs=getattr(args, "jobs", None),
            cluster_jobs=getattr(args, "cluster_jobs", None),
            checkpoint_store=getattr(args, "store", None),
            trace=trace,
        )
        # A record file that cannot be written fails now, before any
        # cell runs (a failed append mid-run only warns).  A --trace
        # file holds this invocation's records only; a REPRO_TRACE
        # file is appended to.
        from .telemetry import TRACE_ENV_VAR, trace_path
        path = trace_path(args.options.trace)
        _check_writable(path)
        if trace and path is not None and os.path.exists(path):
            open(path, "w", encoding="utf-8").close()
        # One correlation id per invocation (REPRO_RUN_ID wins when the
        # caller set one, e.g. an orchestrator correlating several
        # commands): planted for the handler's extent so every span,
        # event, and trace record greps under it.
        if args.options.run_id is None:
            args.options = args.options.with_overrides(
                run_id=mint_run_id())
        # A --store or --trace flag rides the environment to wherever
        # it is resolved (the pipeline, matrix cells, service jobs) —
        # the same mechanism the variables themselves use.
        from .store import STORE_ENV_VAR
        with bound_run_id(args.options.run_id), \
                _env_overrides({STORE_ENV_VAR: getattr(args, "store", None),
                                TRACE_ENV_VAR: trace}):
            return args.handler(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0
    except (ValueError, OSError) as exc:
        # Bad user input reaching past argparse (unknown --method name,
        # invalid REPRO_EXPERIMENT_SCALE, malformed --output extension,
        # an --output/--trace path that cannot be written, a retired
        # recording switch): a
        # readable one-line diagnostic, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
