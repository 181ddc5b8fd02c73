"""Tests for the benchmark-trajectory tracker (benchmarks/trajectory.py).

The module is stdlib-only and lives outside the package, so it is loaded
here by file path.
"""

import importlib.util
import json
import pathlib

_MODULE_PATH = (pathlib.Path(__file__).resolve().parent.parent
                / "benchmarks" / "trajectory.py")
_spec = importlib.util.spec_from_file_location("trajectory", _MODULE_PATH)
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)


def write_bench(root, tag, summary, bench=None, scale="bench"):
    payload = {"bench": bench or tag, "scale": scale, "summary": summary}
    (root / f"BENCH_{tag}.json").write_text(json.dumps(payload))


class TestDirectionInference:
    def test_cost_markers_win_over_ratio_suffix(self):
        assert trajectory.metric_direction("audit_on_overhead_ratio") \
            == "lower"
        assert trajectory.metric_direction("gate_check_microseconds") \
            == "lower"
        assert trajectory.metric_direction("mean_abs_cold_start_error") \
            == "lower"
        assert trajectory.metric_direction("pht_stale") == "lower"

    def test_benefit_markers(self):
        assert trajectory.metric_direction("peak_record_ratio") == "higher"
        assert trajectory.metric_direction("speedup_vs_smarts") == "higher"
        assert trajectory.metric_direction("mean_btb_agreement") == "higher"
        assert trajectory.metric_direction("pht_exact") == "higher"

    def test_unknown_names_are_not_gated(self):
        assert trajectory.metric_direction("num_clusters") == "none"
        assert not trajectory._is_regression("none", 10, 1, 0.15)


class TestCollect:
    def test_collect_normalises_bench_files(self, tmp_path):
        write_bench(tmp_path, "pr3", {"peak_record_ratio": 4.0,
                                      "identical_results": True})
        write_bench(tmp_path, "pr4", {"mean_btb_agreement": 1.0,
                                      "notes": "ignored-non-scalar"})
        collected = trajectory.collect(str(tmp_path))
        assert collected["schema"] == trajectory.SCHEMA
        assert set(collected["benches"]) == {"pr3", "pr4"}
        assert collected["benches"]["pr3"]["metrics"] == {
            "peak_record_ratio": 4.0, "identical_results": True,
        }
        # Non-scalar summary entries are dropped, not exported.
        assert "notes" not in collected["benches"]["pr4"]["metrics"]

    def test_collect_is_deterministic(self, tmp_path):
        write_bench(tmp_path, "a", {"x_ratio": 1.0})
        first = trajectory.collect(str(tmp_path))
        second = trajectory.collect(str(tmp_path))
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)


class TestGate:
    def baseline(self, tmp_path):
        write_bench(tmp_path, "pr3", {
            "peak_record_ratio": 4.0,
            "walk_step_ratio_full_log": 3.5,
            "identical_results": True,
        })
        return trajectory.collect(str(tmp_path))

    def test_identical_trajectories_pass(self, tmp_path):
        base = self.baseline(tmp_path)
        status, report = trajectory.gate(base, base, 0.15)
        assert status == 0
        assert "trajectory gate passed" in report

    def test_within_threshold_passes(self, tmp_path):
        base = self.baseline(tmp_path)
        current = json.loads(json.dumps(base))
        current["benches"]["pr3"]["metrics"]["peak_record_ratio"] = 3.6
        status, _ = trajectory.gate(current, base, 0.15)
        assert status == 0

    def test_injected_regression_fails_with_readable_diff(self, tmp_path):
        base = self.baseline(tmp_path)
        current = json.loads(json.dumps(base))
        current["benches"]["pr3"]["metrics"]["peak_record_ratio"] = 2.0
        status, report = trajectory.gate(current, base, 0.15)
        assert status == 2
        assert "REGRESSION pr3.peak_record_ratio" in report
        assert "4.0 -> 2.0" in report
        assert "min allowed" in report
        assert "FAILED" in report

    def test_boolean_must_not_flip_false(self, tmp_path):
        base = self.baseline(tmp_path)
        current = json.loads(json.dumps(base))
        current["benches"]["pr3"]["metrics"]["identical_results"] = False
        status, report = trajectory.gate(current, base, 0.15)
        assert status == 2
        assert "must stay true" in report

    def test_lower_is_better_regression(self, tmp_path):
        base = {"benches": {"pr4": {"metrics": {
            "mean_abs_cold_start_error": 0.002}}}}
        worse = {"benches": {"pr4": {"metrics": {
            "mean_abs_cold_start_error": 0.010}}}}
        status, report = trajectory.gate(worse, base, 0.15)
        assert status == 2
        assert "max allowed" in report
        improved = {"benches": {"pr4": {"metrics": {
            "mean_abs_cold_start_error": 0.0001}}}}
        status, _ = trajectory.gate(improved, base, 0.15)
        assert status == 0

    def test_new_benches_and_metrics_pass(self, tmp_path):
        base = self.baseline(tmp_path)
        current = json.loads(json.dumps(base))
        current["benches"]["pr9"] = {"metrics": {"anything_ratio": 0.1}}
        current["benches"]["pr3"]["metrics"]["brand_new_ratio"] = 0.5
        status, report = trajectory.gate(current, base, 0.15)
        assert status == 0
        assert "new bench 'pr9'" in report
        assert "not gated" in report

    def test_missing_bench_warns_without_failing(self, tmp_path):
        base = self.baseline(tmp_path)
        status, report = trajectory.gate({"benches": {}}, base, 0.15)
        assert status == 0
        assert "missing from current run" in report


class TestCli:
    def test_collect_and_gate_end_to_end(self, tmp_path, capsys):
        write_bench(tmp_path, "pr3", {"peak_record_ratio": 4.0})
        baseline_path = tmp_path / "TRAJECTORY.json"
        assert trajectory.main([
            "collect", "--root", str(tmp_path),
            "--output", str(baseline_path),
        ]) == 0
        assert trajectory.main([
            "gate", "--root", str(tmp_path),
            "--baseline", str(baseline_path),
        ]) == 0
        assert "gate passed" in capsys.readouterr().out

    def test_cli_exit_2_on_regression(self, tmp_path, capsys):
        write_bench(tmp_path, "pr3", {"peak_record_ratio": 4.0})
        baseline_path = tmp_path / "TRAJECTORY.json"
        trajectory.main(["collect", "--root", str(tmp_path),
                         "--output", str(baseline_path)])
        write_bench(tmp_path, "pr3", {"peak_record_ratio": 1.0})
        status = trajectory.main([
            "gate", "--root", str(tmp_path),
            "--baseline", str(baseline_path),
        ])
        assert status == 2
        assert "REGRESSION" in capsys.readouterr().out

    def test_repo_baseline_matches_committed_bench_files(self):
        """The committed TRAJECTORY.json is exactly what collect()
        produces from the committed BENCH_*.json files."""
        repo_root = _MODULE_PATH.parent.parent
        baseline_path = repo_root / "benchmarks" / "TRAJECTORY.json"
        committed = json.loads(baseline_path.read_text())
        collected = trajectory.collect(str(repo_root))
        assert collected == committed
