"""Unit tests for the CI guard scripts (bench smoke validation and the
benchmark regression checker) — the pieces the workflow relies on — and
for the plan census."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load(module_name: str):
    path = REPO_ROOT / "scripts" / f"{module_name}.py"
    spec = importlib.util.spec_from_file_location(module_name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regression = _load("check_bench_regression")
smoke = _load("ci_bench_smoke")
census = _load("plan_census")


def _write_artifact(directory: Path, name: str, payload: dict) -> Path:
    path = directory / f"{name}.json"
    path.write_text(json.dumps(
        {"name": name, "created_unix": 1.0, "payload": payload}
    ))
    return path


class TestTrackedPaths:
    def test_leaf_seconds_keys(self):
        payload = {
            "queries": {
                "scan": {"streaming_seconds": 0.001, "speedup": 120.0},
            },
            "n_rows": 1000,
        }
        assert regression.tracked_paths(payload) == {
            "queries.scan.streaming_seconds": 0.001
        }

    def test_seconds_container_tracks_children(self):
        payload = {"stage_seconds": {"detect": 0.5, "apply": {"sub": 0.25}}}
        assert regression.tracked_paths(payload) == {
            "stage_seconds.detect": 0.5,
            "stage_seconds.apply.sub": 0.25,
        }

    def test_plain_seconds_key(self):
        payload = {"modes": {"composite": {"seconds": 2.0}}}
        assert regression.tracked_paths(payload) == {
            "modes.composite.seconds": 2.0
        }

    def test_bools_and_counts_ignored(self):
        payload = {"seconds": True, "limit_seconds": "n/a", "n": 7}
        assert regression.tracked_paths(payload) == {}


class TestCompare:
    def test_no_regression(self, tmp_path):
        base, new = tmp_path / "base", tmp_path / "new"
        base.mkdir(), new.mkdir()
        _write_artifact(base, "b", {"run_seconds": 1.0})
        _write_artifact(new, "b", {"run_seconds": 1.5})
        assert regression.compare(base, new, 2.0, 0.0001) == []

    def test_regression_detected(self, tmp_path):
        base, new = tmp_path / "base", tmp_path / "new"
        base.mkdir(), new.mkdir()
        _write_artifact(base, "b", {"run_seconds": 1.0})
        _write_artifact(new, "b", {"run_seconds": 2.5})
        problems = regression.compare(base, new, 2.0, 0.0001)
        assert len(problems) == 1 and "run_seconds" in problems[0]

    def test_absolute_floor_suppresses_jitter(self, tmp_path):
        base, new = tmp_path / "base", tmp_path / "new"
        base.mkdir(), new.mkdir()
        _write_artifact(base, "b", {"run_seconds": 0.00001})
        _write_artifact(new, "b", {"run_seconds": 0.00005})  # 5x but tiny
        assert regression.compare(base, new, 2.0, 0.0001) == []

    def test_missing_artifact_fails(self, tmp_path):
        base, new = tmp_path / "base", tmp_path / "new"
        base.mkdir(), new.mkdir()
        _write_artifact(base, "b", {"run_seconds": 1.0})
        problems = regression.compare(base, new, 2.0, 0.0001)
        assert problems and "no fresh artifact" in problems[0]

    def test_disappeared_path_fails(self, tmp_path):
        base, new = tmp_path / "base", tmp_path / "new"
        base.mkdir(), new.mkdir()
        _write_artifact(base, "b", {"run_seconds": 1.0})
        _write_artifact(new, "b", {"other_seconds": 1.0})
        problems = regression.compare(base, new, 2.0, 0.0001)
        assert problems and "disappeared" in problems[0]

    def test_committed_baselines_track_real_artifacts(self):
        """The shipped baselines expose at least one hot path each."""
        baseline_dir = REPO_ROOT / "benchmarks" / "baselines"
        baselines = sorted(baseline_dir.glob("*.json"))
        assert baselines, "no committed baselines"
        for path in baselines:
            payload = regression.load_payload(path)
            assert regression.tracked_paths(payload), path.name


class TestSmokeValidation:
    def test_valid_artifact(self, tmp_path):
        path = _write_artifact(tmp_path, "good", {"x_seconds": 1.0})
        assert smoke.validate_artifact(path) == []

    def test_name_mismatch(self, tmp_path):
        path = tmp_path / "renamed.json"
        path.write_text(json.dumps(
            {"name": "other", "created_unix": 1.0, "payload": {"a": 1}}
        ))
        errors = smoke.validate_artifact(path)
        assert any("name" in e for e in errors)

    def test_empty_payload_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(
            {"name": "empty", "created_unix": 1.0, "payload": {}}
        ))
        assert smoke.validate_artifact(path)

    def test_unreadable_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert smoke.validate_artifact(path)

    def test_expected_artifacts_cover_known_benches(self):
        assert smoke.bench_list_mismatches() == []


class TestBenchLists:
    """``EXPECTED_ARTIFACTS``, the bench files and the baselines agree."""

    @staticmethod
    def _layout(tmp_path, benches, baselines):
        bench_dir, baseline_dir = tmp_path / "benchmarks", tmp_path / "baselines"
        bench_dir.mkdir(), baseline_dir.mkdir()
        for name in benches:
            (bench_dir / name).write_text("")
        for name in baselines:
            _write_artifact(baseline_dir, name, {"run_seconds": 1.0})
        return bench_dir, baseline_dir

    def test_agreeing_lists_pass(self, tmp_path):
        dirs = self._layout(tmp_path, ["bench_a.py", "bench_b.py"], ["a"])
        expected = {"bench_a.py": "a", "bench_b.py": "b"}
        assert smoke.bench_list_mismatches(*dirs, expected) == []

    def test_missing_bench_file_is_named(self, tmp_path):
        dirs = self._layout(tmp_path, ["bench_a.py"], ["a"])
        expected = {"bench_a.py": "a", "bench_gone.py": "gone"}
        problems = smoke.bench_list_mismatches(*dirs, expected)
        assert len(problems) == 1 and "bench_gone.py" in problems[0]

    def test_orphan_baseline_is_named(self, tmp_path):
        dirs = self._layout(tmp_path, ["bench_a.py"], ["a", "orphan"])
        problems = smoke.bench_list_mismatches(*dirs, {"bench_a.py": "a"})
        assert len(problems) == 1 and "orphan.json" in problems[0]


class TestPlanCensus:
    def test_one_example_prints_one_line_per_plan(self, capsys):
        assert census.main(["--only", "durable_reopen", "--shape"]) == 0
        lines = capsys.readouterr().out.splitlines()
        records = [json.loads(line) for line in lines]
        assert records and len(set(lines)) == len(lines)
        assert {r["source"] for r in records} == {"durable_reopen"}
        assert {r["vectorize"] for r in records} == {"auto"}
        plans = {r["statement"]: r["plan"] for r in records}
        assert plans["SELECT COUNT(*) FROM salaries WHERE country = 'country-7'"] == [
            "HashAggregate(keys=0)",
            "  IndexEqScan(salaries.country via idx_country)",
        ]
        assert not any("est_rows" in line for plan in plans.values() for line in plan)
