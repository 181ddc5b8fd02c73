"""Tests for the command-line interface (python -m repro)."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_workloads_command(self):
        args = build_parser().parse_args(["workloads"])
        assert args.command == "workloads"

    def test_true_ipc_requires_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["true-ipc"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["true-ipc", "quake"])

    def test_scale_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["true-ipc", "gcc", "--scale", "huge"])

    def test_sample_collects_methods(self):
        args = build_parser().parse_args(
            ["sample", "gcc", "--method", "S$BP", "--method", "None"],
        )
        assert args.method == ["S$BP", "None"]

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_design_command(self):
        args = build_parser().parse_args(
            ["design", "mcf", "--target-error", "0.05"],
        )
        assert args.command == "design"
        assert args.target_error == 0.05

    def test_reproduce_command(self):
        args = build_parser().parse_args(
            ["reproduce", "--output", "grid.csv"],
        )
        assert args.command == "reproduce"
        assert args.output == "grid.csv"

    def test_compare_command(self):
        args = build_parser().parse_args(["compare", "art"])
        assert args.command == "compare"

    def test_matrix_command_defaults(self):
        args = build_parser().parse_args(["matrix"])
        assert args.command == "matrix"
        assert args.jobs is None
        assert args.cache == "auto"
        assert args.workload is None
        assert not args.quiet

    def test_matrix_command_flags(self):
        args = build_parser().parse_args(
            ["matrix", "--jobs", "4", "--scale", "ci", "--cache", "off",
             "--workload", "ammp", "--workload", "gcc", "--quiet"],
        )
        assert args.jobs == 4
        assert args.scale == "ci"
        assert args.cache == "off"
        assert args.workload == ["ammp", "gcc"]
        assert args.quiet

    def test_matrix_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["matrix", "--workload", "quake"])

    def test_matrix_collects_methods(self):
        args = build_parser().parse_args(
            ["matrix", "--method", "rsr", "--method", "S$BP"],
        )
        assert args.method == ["rsr", "S$BP"]

    def test_methods_command(self):
        args = build_parser().parse_args(["methods"])
        assert args.command == "methods"


class TestCommands:
    def test_workloads_lists_all_nine(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("ammp", "art", "gcc", "mcf", "parser", "perl",
                     "twolf", "vortex", "vpr"):
            assert name in out

    def test_true_ipc_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        assert main(["true-ipc", "ammp"]) == 0
        out = capsys.readouterr().out
        assert "true IPC" in out

    def test_sample_default_methods(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        assert main(["sample", "ammp"]) == 0
        out = capsys.readouterr().out
        assert "S$BP" in out
        assert "R$BP (20%)" in out
        assert "rel. error" in out

    def test_sample_explicit_method(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        assert main(["sample", "ammp", "--method", "None"]) == 0
        out = capsys.readouterr().out
        assert "None" in out
        assert "S$BP" not in out.replace("true IPC", "")

    def test_sample_resolves_registry_alias(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        assert main(["sample", "ammp", "--method", "rsr"]) == 0
        out = capsys.readouterr().out
        assert "R$BP (100%)" in out

    def test_methods_lists_registry(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        for name in ("None", "S$BP", "R$BP (100%)", "RBP"):
            assert name in out

    def test_matrix_method_subset(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        assert main(["matrix", "--workload", "ammp", "--method", "rsr",
                     "--jobs", "1", "--cache", str(tmp_path / "cache"),
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "R$BP (100%)" in out  # alias shown under its canonical name
        assert "S$BP" not in out

    def test_matrix_unknown_method_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        assert main(["matrix", "--workload", "ammp", "--method", "Bogus",
                     "--jobs", "1", "--cache", "off", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Bogus" in err
        assert "Traceback" not in err


class TestTraceAndProfileParsing:
    def test_sample_accepts_trace(self):
        args = build_parser().parse_args(
            ["sample", "ammp", "--trace", "out.jsonl"],
        )
        assert args.trace == "out.jsonl"

    def test_matrix_accepts_trace(self):
        args = build_parser().parse_args(
            ["matrix", "--trace", "out.jsonl"],
        )
        assert args.trace == "out.jsonl"

    def test_profile_command(self):
        args = build_parser().parse_args(
            ["profile", "gcc", "--method", "S$BP", "--scale", "ci"],
        )
        assert args.command == "profile"
        assert args.method == ["S$BP"]
        assert args.trace is None

    def test_profile_requires_known_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "quake"])


class TestFailurePaths:
    """Bad input exits non-zero with a readable message, not a traceback."""

    def test_unknown_workload_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sample", "quake"])
        assert excinfo.value.code != 0
        err = capsys.readouterr().err
        assert "quake" in err

    def test_unknown_method_readable_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        assert main(["sample", "ammp", "--method", "Bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Bogus" in err
        assert "Traceback" not in err

    def test_invalid_scale_env_readable_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "huge")
        assert main(["sample", "ammp", "--method", "None"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "huge" in err
        assert "Traceback" not in err


class TestTraceCommands:
    def test_sample_trace_writes_jsonl(self, capsys, monkeypatch, tmp_path):
        import json

        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        path = tmp_path / "trace.jsonl"
        assert main(["sample", "ammp", "--method", "None",
                     "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "time per phase" in out
        lines = [line for line in path.read_text().splitlines() if line]
        types = [json.loads(line)["type"] for line in lines]
        assert types.count("cluster") == 10  # one per ci-tier cluster
        assert types.count("run_start") == types.count("run_end") == 1
        assert set(types) == {"cluster", "span", "counter", "run_start",
                              "run_end"}

    def test_trace_flag_replaces_the_file(self, capsys, monkeypatch,
                                          tmp_path):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        path = tmp_path / "trace.jsonl"
        path.write_text("stale\n")
        for _ in range(2):
            assert main(["sample", "ammp", "--method", "None",
                         "--trace", str(path)]) == 0
        capsys.readouterr()
        lines = path.read_text().splitlines()
        assert "stale" not in lines
        assert sum('"type":"run_start"' in line for line in lines) == 1

    def test_profile_prints_phase_split(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        assert main(["profile", "ammp", "--method", "None"]) == 0
        out = capsys.readouterr().out
        assert "time per phase" in out
        assert "hot_sim" in out

    def test_profile_surfaces_compaction_section(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        assert main(["profile", "ammp", "--method", "rsr"]) == 0
        out = capsys.readouterr().out
        assert "Skip-log compaction" in out
        assert "dedup ratio" in out
        assert "peak gap records" in out

    def test_profile_without_log_omits_compaction(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        assert main(["profile", "ammp", "--method", "None"]) == 0
        out = capsys.readouterr().out
        assert "Skip-log compaction" not in out


class TestOutputStability:
    """Golden-ish assertions on section headers and registry listings:
    downstream tooling greps this output, so renames must be deliberate."""

    def test_methods_listing_is_stable(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        assert "Registered warm-up methods" in out
        assert "aliases 'rsr' and 'smarts' also resolve" in out
        # Header row and one row per registered class family.
        assert "name" in out and "class" in out
        for name in ("None", "S$BP", "SBP", "RBP", "FP (20%)",
                     "R$ (100%)", "R$BP (100%)", "R$BP (20%)"):
            assert name in out, f"registry listing lost {name!r}"
        for class_name in ("NoWarmup", "SmartsWarmup",
                           "FixedPeriodWarmup",
                           "ReverseStateReconstruction"):
            assert class_name in out

    def test_profile_section_headers_are_stable(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        assert main(["profile", "ammp", "--method", "rsr"]) == 0
        out = capsys.readouterr().out
        for header in ("time per phase",
                       "Updates and events per structure",
                       "Trace-record totals per method",
                       "Skip-log compaction"):
            assert header in out, f"profile output lost {header!r}"
        for phase in ("cold_skip", "reconstruct", "hot_sim"):
            assert phase in out

    def test_profile_unknown_method_with_trace_exits_2(
            self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        trace_path = tmp_path / "trace.jsonl"
        assert main(["profile", "ammp", "--method", "Bogus",
                     "--trace", str(trace_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Bogus" in captured.err
        assert "Traceback" not in captured.err
        # Failing before any run means no partial trace file appears.
        assert not trace_path.exists()


class TestAuditCommand:
    def test_audit_parser_defaults(self):
        args = build_parser().parse_args(["audit", "ammp"])
        assert args.command == "audit"
        assert args.method is None
        assert args.json is None

    def test_audit_parser_flags(self):
        args = build_parser().parse_args(
            ["audit", "gcc", "--method", "rsr",
             "--json", "audit.json", "--scale", "ci"],
        )
        assert args.method == ["rsr"]
        assert args.json == "audit.json"

    def test_audit_reports_attribution(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        assert main(["audit", "ammp", "--method", "rsr"]) == 0
        out = capsys.readouterr().out
        assert "accuracy audit" in out
        assert "cold err" in out and "samp err" in out
        assert "error attribution per method" in out
        assert "R$BP (100%)" in out

    def test_audit_env_is_restored(self, capsys, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        assert main(["audit", "ammp", "--method", "smarts"]) == 0
        assert "REPRO_AUDIT" not in os.environ

    def test_audit_json_export(self, capsys, monkeypatch, tmp_path):
        import json

        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        path = tmp_path / "audit.json"
        assert main(["audit", "ammp", "--method", "rsr",
                     "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"audit JSON written to {path}" in out
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-audit-v1"
        assert payload["clusters"]

    def test_audit_unknown_method_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        assert main(["audit", "ammp", "--method", "Bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Bogus" in err


class TestClusterJobs:
    """--cluster-jobs / REPRO_CLUSTER_JOBS plumbing on the CLI."""

    @pytest.mark.parametrize("command", [
        ["sample", "ammp"],
        ["matrix"],
        ["profile", "gcc"],
    ])
    def test_flag_parses(self, command):
        args = build_parser().parse_args(command + ["--cluster-jobs", "2"])
        assert args.cluster_jobs == 2

    def test_flag_defaults_to_env_resolution(self):
        args = build_parser().parse_args(["sample", "ammp"])
        assert args.cluster_jobs is None

    def test_methods_lists_shardable_column(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        assert "shardable" in out
        lines = {line.split()[0]: line for line in out.splitlines()
                 if line.strip() and not line.startswith(("name", "-"))}
        assert lines["R$BP"].rstrip().endswith("yes")
        assert lines["S$BP"].rstrip().endswith("no")

    def test_sample_runs_sharded(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "cache"))
        assert main(["sample", "ammp", "--method", "rsr",
                     "--cluster-jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "R$BP (100%)" in out
        assert "rel. error" in out

    def test_sharded_trace_has_every_cluster(self, capsys, monkeypatch,
                                             tmp_path):
        """``--trace`` reaches the shard workers: the sharded run writes
        one record per cluster, as the serial run does."""
        from repro.telemetry import read_trace

        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        counts = {}
        for jobs in ("1", "2"):
            path = tmp_path / f"trace-{jobs}.jsonl"
            assert main(["sample", "gcc", "--scale", "ci", "--method", "rsr",
                         "--trace", str(path), "--cluster-jobs", jobs]) == 0
            counts[jobs] = sum(1 for record in read_trace(str(path))
                               if record["type"] == "cluster")
        capsys.readouterr()
        assert counts["2"] == counts["1"] > 0

    def test_non_shardable_method_notice(self, capsys, monkeypatch,
                                         tmp_path):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "cache"))
        assert main(["sample", "ammp", "--method", "S$BP",
                     "--cluster-jobs", "2"]) == 0
        err = capsys.readouterr().err
        assert "cannot be sharded" in err
        assert "Traceback" not in err

    def test_negative_cluster_jobs_exits_2(self, capsys, monkeypatch,
                                           tmp_path):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "cache"))
        assert main(["sample", "ammp", "--method", "None",
                     "--cluster-jobs", "-3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["matrix", "--workload", "ammp", "--method", "None", "--jobs", "1",
         "--cache", "off", "--quiet", "--executor", "pool"],
        ["serve", "--port", "0", "--executor", "pool"],
        ["executors"],
    ], ids=["matrix-flag", "serve-flag", "executors-command"])
    def test_matrix_retired_executor_exits_2(self, capsys, argv):
        """The executor flag and subcommand are gone: argparse rejects
        them with one error line and exit status 2, before any run."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert ("--executor" in errors[0]) != (argv == ["executors"])
        assert "Traceback" not in err

    def test_serve_retired_service_log_exits_2(self, capsys,
                                               monkeypatch):
        """The service's records go to the REPRO_TRACE file: a set
        REPRO_SERVICE_LOG fails before the service starts, naming
        REPRO_TRACE."""
        def unreachable(*args, **kwargs):
            raise AssertionError("the service started")

        monkeypatch.setattr("repro.service.SimulationService", unreachable)
        monkeypatch.setenv("REPRO_SERVICE_LOG", "x")
        assert main(["serve", "--scale", "ci", "--port", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: REPRO_SERVICE_LOG is retired")
        assert "REPRO_TRACE" in err and "Traceback" not in err

    def test_matrix_bad_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        monkeypatch.setenv("REPRO_CLUSTER_JOBS", "lots")
        assert main(["matrix", "--workload", "ammp", "--method", "None",
                     "--jobs", "1", "--cache", "off", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "REPRO_CLUSTER_JOBS" in err
        assert "Traceback" not in err
