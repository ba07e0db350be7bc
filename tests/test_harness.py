"""The parallel experiment harness: artifacts, determinism, diffing."""

import json

import pytest

from repro.__main__ import main
from repro.analysis.targets import check_artifact, format_artifact_checks
from repro.experiments import fig11, harness
from repro.experiments.runner import EXPERIMENTS, normalize_names, run_all
from repro.runtime import SweepConfig

FAST_NAMES = ["table1", "fig7", "fig4", "transactions", "feasibility"]


class TestNormalizeNames:
    def test_default_is_every_experiment(self):
        assert normalize_names(None) == list(EXPERIMENTS)

    def test_unknown_name_raises_value_error(self):
        """Library code raises ValueError, never SystemExit (bugfix)."""
        with pytest.raises(ValueError, match="fig99"):
            normalize_names(["fig99"])

    def test_duplicates_collapse_preserving_order(self):
        assert normalize_names(["fig7", "table1", "fig7"]) == ["fig7", "table1"]

    def test_run_all_rejects_unknown_with_value_error(self):
        with pytest.raises(ValueError):
            run_all(["not-an-experiment"])

    def test_run_all_deduplicates(self):
        text = run_all(["table1", "table1"])
        assert text.count("Table 1 — system configuration") == 1


class TestHarnessRun:
    @pytest.fixture(scope="class")
    def serial(self):
        return harness.run_experiments(FAST_NAMES, config=SweepConfig())

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            harness.run_experiments(
                ["table1"], config=SweepConfig(backend="pool", jobs=0)
            )

    def test_report_matches_serial_runner(self, serial):
        assert serial.report_text() == run_all(FAST_NAMES)

    def test_metadata_present(self, serial):
        for name in FAST_NAMES:
            record = serial.records[name]
            assert record.wall_seconds >= 0
            assert record.events_fired >= 0
            assert record.shards >= 1

    def test_artifact_schema(self, serial):
        artifact = serial.to_artifact()
        assert artifact["schema"] == harness.SCHEMA
        assert artifact["schema_version"] == harness.SCHEMA_VERSION
        assert artifact["run"]["experiments"] == FAST_NAMES
        for name in FAST_NAMES:
            entry = artifact["experiments"][name]
            assert isinstance(entry["result"], dict)
            assert isinstance(entry["metrics"], dict)
            assert len(entry["report_sha256"]) == 64
            timing = artifact["timing"]["per_experiment"][name]
            assert set(timing) == {
                "wall_seconds",
                "events_fired",
                "events_per_sec",
                "shards",
            }

    def test_artifact_is_json_serializable(self, serial):
        text = json.dumps(serial.to_artifact())
        assert json.loads(text)["schema_version"] == 1

    def test_parallel_matches_serial_byte_for_byte(self, serial):
        """The determinism contract: --jobs 4 == --jobs 1, byte for byte."""
        parallel = harness.run_experiments(
            FAST_NAMES, config=SweepConfig(backend="pool", jobs=4)
        )
        serial_bytes = json.dumps(
            serial.to_artifact()["experiments"], sort_keys=True
        ).encode()
        parallel_bytes = json.dumps(
            parallel.to_artifact()["experiments"], sort_keys=True
        ).encode()
        assert serial_bytes == parallel_bytes

    def test_write_and_load_roundtrip(self, serial, tmp_path):
        path = tmp_path / "artifact.json"
        written = serial.write_artifact(str(path))
        loaded = harness.load_artifact(str(path))
        assert loaded == written

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(ValueError, match="artifact"):
            harness.load_artifact(str(path))

    def test_load_rejects_future_schema_version(self, serial, tmp_path):
        artifact = serial.to_artifact()
        artifact["schema_version"] = 999
        path = tmp_path / "future.json"
        path.write_text(json.dumps(artifact))
        with pytest.raises(ValueError, match="schema_version"):
            harness.load_artifact(str(path))


class TestShardedMergeEquality:
    def test_fig11_sharded_equals_serial(self):
        spec = harness._sharded_experiments()["fig11"]
        merged = spec.merge(
            [spec.run_shard(index) for index in range(spec.shard_count())]
        )
        assert merged == fig11.run()


class TestDiff:
    @pytest.fixture(scope="class")
    def artifact(self):
        return harness.run_experiments(
            ["table1", "fig7"], config=SweepConfig()
        ).to_artifact()

    def test_self_diff_reports_no_regressions(self, artifact):
        diff = harness.diff_artifacts(artifact, artifact)
        assert not diff.has_regressions
        assert "no regressions" in diff.format()

    def test_missing_experiment_is_a_regression(self, artifact):
        current = json.loads(json.dumps(artifact))
        del current["experiments"]["fig7"]
        diff = harness.diff_artifacts(current, artifact)
        assert diff.has_regressions
        assert any("fig7" in line for line in diff.regressions)

    def test_band_exit_is_a_regression(self, artifact):
        current = json.loads(json.dumps(artifact))
        current["experiments"]["fig7"]["metrics"]["fig7.lines_per_burst"] = 7.0
        diff = harness.diff_artifacts(current, artifact)
        assert diff.has_regressions
        assert "fig7.lines_per_burst" in diff.format()

    def test_within_band_drift_is_a_note_not_regression(self, artifact):
        current = json.loads(json.dumps(artifact))
        current["experiments"]["fig7"]["metrics"]["fig7.third_burst_ns"] += 1.0
        diff = harness.diff_artifacts(current, artifact)
        assert not diff.has_regressions
        assert any("drifted" in note for note in diff.notes)


class TestArtifactTargetChecks:
    def test_checks_rerun_from_loaded_json(self, tmp_path):
        run = harness.run_experiments(["fig7"], config=SweepConfig())
        path = tmp_path / "fig7.json"
        run.write_artifact(str(path))
        checks = check_artifact(harness.load_artifact(str(path)))
        names = {check.target.name for check in checks}
        assert "fig7.lines_per_burst" in names
        assert "fig7.third_burst_ns" in names
        assert all(check.ok for check in checks)
        table = format_artifact_checks(checks)
        assert "ok" in table and "FAIL" not in table


class TestBenchEmitter:
    def test_append_creates_and_accumulates(self, tmp_path):
        path = tmp_path / "BENCH_runner.json"
        records = [
            {
                "test": "t1",
                "wall_seconds": 0.5,
                "events_fired": 100,
                "events_per_sec": 200.0,
            }
        ]
        first = harness.append_bench_run(str(path), records)
        assert first["schema_version"] == 1
        assert len(first["runs"]) == 1
        second = harness.append_bench_run(str(path), records, meta={"tests": 1})
        assert len(second["runs"]) == 2
        assert second["runs"][1]["meta"] == {"tests": 1}

    def test_corrupt_file_is_backed_up_not_silently_discarded(self, tmp_path):
        path = tmp_path / "BENCH_runner.json"
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            document = harness.append_bench_run(str(path), [])
        assert len(document["runs"]) == 1
        backup = tmp_path / "BENCH_runner.json.corrupt"
        assert backup.read_text() == "{not json"

    def test_wrong_shape_file_is_backed_up(self, tmp_path):
        path = tmp_path / "BENCH_runner.json"
        path.write_text('{"valid json": "but not a trajectory"}')
        with pytest.warns(RuntimeWarning, match="not a bench-trajectory"):
            document = harness.append_bench_run(str(path), [])
        assert len(document["runs"]) == 1
        assert (tmp_path / "BENCH_runner.json.corrupt").exists()

    def test_timestamps_are_utc_iso8601(self, tmp_path):
        from datetime import datetime, timezone

        path = tmp_path / "BENCH_runner.json"
        document = harness.append_bench_run(str(path), [])
        stamp = document["runs"][0]["timestamp"]
        parsed = datetime.fromisoformat(stamp)
        assert parsed.utcoffset() is not None
        assert parsed.utcoffset().total_seconds() == 0
        assert abs((datetime.now(timezone.utc) - parsed).total_seconds()) < 60

    def test_old_local_time_entries_remain_accepted(self, tmp_path):
        # Trajectories written before the UTC switch carry strftime
        # local-time stamps; appending must keep them untouched.
        path = tmp_path / "BENCH_runner.json"
        old = {
            "schema": "netdimm-repro/bench-trajectory",
            "schema_version": 1,
            "runs": [{"timestamp": "2026-01-05T10:00:00+0100", "records": []}],
        }
        path.write_text(json.dumps(old))
        document = harness.append_bench_run(str(path), [])
        assert len(document["runs"]) == 2
        assert document["runs"][0]["timestamp"] == "2026-01-05T10:00:00+0100"


class TestBenchRegressionCheck:
    @staticmethod
    def _trajectory(*rates_per_run):
        return {
            "runs": [
                {
                    "records": [
                        {"test": test, "events_per_sec": rate}
                        for test, rate in rates.items()
                    ]
                }
                for rates in rates_per_run
            ]
        }

    def test_single_run_has_nothing_to_compare(self):
        document = self._trajectory({"t1": 1000.0})
        assert harness.check_bench_regression(document) == []

    def test_within_threshold_passes(self):
        document = self._trajectory({"t1": 1000.0}, {"t1": 800.0})
        assert harness.check_bench_regression(document) == []

    def test_drop_past_threshold_fails(self):
        document = self._trajectory({"t1": 1000.0, "t2": 500.0}, {"t1": 700.0, "t2": 500.0})
        failures = harness.check_bench_regression(document)
        assert len(failures) == 1
        assert failures[0].startswith("t1:")
        assert "30%" in failures[0]

    def test_only_last_two_runs_are_compared(self):
        document = self._trajectory({"t1": 9999.0}, {"t1": 1000.0}, {"t1": 900.0})
        assert harness.check_bench_regression(document) == []

    def test_new_tests_are_not_failures(self):
        document = self._trajectory({"t1": 1000.0}, {"t1": 1000.0, "new": 10.0})
        assert harness.check_bench_regression(document) == []

    def test_vanished_tests_are_failures(self):
        document = self._trajectory({"old": 1000.0, "t1": 500.0}, {"t1": 500.0})
        failures = harness.check_bench_regression(document)
        assert len(failures) == 1
        assert failures[0].startswith("old:")
        assert "missing from newest run" in failures[0]

    def test_expected_improvement_met_passes(self):
        document = self._trajectory({"t1": 1000.0}, {"t1": 1300.0})
        assert (
            harness.check_bench_regression(
                document, expect_improvement={"t1": 1.25}
            )
            == []
        )

    def test_expected_improvement_missed_fails(self):
        document = self._trajectory({"t1": 1000.0}, {"t1": 1100.0})
        failures = harness.check_bench_regression(
            document, expect_improvement={"t1": 1.25}
        )
        assert len(failures) == 1
        assert "expected >= 1.25x improvement, got 1.10x" in failures[0]

    def test_expected_improvement_on_absent_test_fails(self):
        document = self._trajectory({"t1": 1000.0}, {"t1": 1000.0})
        failures = harness.check_bench_regression(
            document, expect_improvement={"ghost": 1.5}
        )
        assert len(failures) == 1
        assert failures[0].startswith("ghost:")

    def test_threshold_is_configurable(self):
        document = self._trajectory({"t1": 1000.0}, {"t1": 940.0})
        assert harness.check_bench_regression(document, threshold=0.05) != []

    def test_cli_script_exit_codes(self, tmp_path):
        import subprocess
        import sys as _sys
        from pathlib import Path

        script = Path(__file__).resolve().parent.parent / "scripts" / "check_bench_regression.py"
        path = tmp_path / "BENCH_runner.json"
        path.write_text(json.dumps(self._trajectory({"t1": 1000.0}, {"t1": 990.0})))
        ok = subprocess.run(
            [_sys.executable, str(script), "--path", str(path)],
            capture_output=True,
            text=True,
        )
        assert ok.returncode == 0, ok.stdout + ok.stderr
        assert "no bench regression" in ok.stdout
        path.write_text(json.dumps(self._trajectory({"t1": 1000.0}, {"t1": 100.0})))
        bad = subprocess.run(
            [_sys.executable, str(script), "--path", str(path)],
            capture_output=True,
            text=True,
        )
        assert bad.returncode == 1
        assert "t1:" in bad.stdout

    def test_cli_expect_improvement_flag(self, tmp_path):
        import subprocess
        import sys as _sys
        from pathlib import Path

        script = Path(__file__).resolve().parent.parent / "scripts" / "check_bench_regression.py"
        path = tmp_path / "BENCH_runner.json"
        path.write_text(json.dumps(self._trajectory({"t1": 1000.0}, {"t1": 1100.0})))
        bad = subprocess.run(
            [_sys.executable, str(script), "--path", str(path),
             "--expect-improvement", "t1=1.25"],
            capture_output=True,
            text=True,
        )
        assert bad.returncode == 1
        assert "expected >= 1.25x" in bad.stdout
        ok = subprocess.run(
            [_sys.executable, str(script), "--path", str(path),
             "--expect-improvement", "t1=1.05"],
            capture_output=True,
            text=True,
        )
        assert ok.returncode == 0, ok.stdout + ok.stderr


class TestCLI:
    def test_jobs_json_baseline_flow(self, tmp_path, capsys):
        artifact_path = tmp_path / "run.json"
        assert (
            main(
                [
                    "experiments",
                    "table1",
                    "fig7",
                    "--jobs",
                    "2",
                    "--json",
                    str(artifact_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Table 1" in out and "Fig. 7" in out
        assert artifact_path.exists()
        # Self-baseline: rerunning against the artifact we just wrote
        # must report no regressions and exit 0.
        assert (
            main(
                [
                    "experiments",
                    "table1",
                    "fig7",
                    "--baseline",
                    str(artifact_path),
                ]
            )
            == 0
        )
        assert "no regressions" in capsys.readouterr().out

    def test_unknown_experiment_clean_exit(self, capsys):
        assert main(["experiments", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_jobs_zero_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["experiments", "table1", "--jobs", "0"])
