#!/usr/bin/env python
"""CI benchmark smoke: run every ``benchmarks/bench_*.py`` at a small
scale and verify each JSON artifact is written and schema-valid.

This guards two things on every PR:

* the benchmark files themselves keep running (imports, fixtures, plan
  assertions) without paying full-scale wall-clock; and
* :func:`repro.bench.write_json_artifact` keeps producing well-formed
  documents — ``{"name": ..., "created_unix": ..., "payload": {...}}``
  with the name matching the file stem.

Usage::

    python scripts/ci_bench_smoke.py [--artifact-dir DIR] [--keep-going]
    python scripts/check_bench_regression.py   # then diff the smoke run

Exits non-zero when any benchmark file fails or any artifact is missing
or malformed.  Artifacts land in ``benchmarks/artifacts/smoke/`` by
default (git-ignored) — the same scale and location the committed
baselines in ``benchmarks/baselines/`` were recorded from, and the
default input of ``check_bench_regression.py`` — keeping the committed
full-scale artifacts untouched.
"""

from __future__ import annotations

import argparse
import json
import numbers
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"
DEFAULT_ARTIFACT_DIR = BENCH_DIR / "artifacts" / "smoke"

# small-scale knobs: every bench honors one of these (or needs none)
SMOKE_ENV = {
    "REPRO_BENCH_SCALE": "0.02",
    "REPRO_STREAM_ROWS": "5000",
    "REPRO_COMPOSITE_ROWS": "5000",
    "REPRO_PREPARED_ROWS": "5000",
    "REPRO_CONC_ROWS": "5000",
    "REPRO_CONC_SECONDS": "0.3",
    "REPRO_DUR_ROWS": "2000",
    "REPRO_DUR_COMMITS": "50",
    "REPRO_VEC_ROWS": "5000",
    "REPRO_TPS_ROWS": "500",
    "REPRO_TPS_SECONDS": "0.3",
}

# benchmark files that must produce an artifact named after the payload
EXPECTED_ARTIFACTS = {
    "bench_composite_index.py": "composite_index",
    "bench_concurrency.py": "concurrency",
    "bench_durability.py": "durability",
    "bench_hopara.py": "hopara",
    "bench_indexes.py": "indexes",
    "bench_joins.py": "joins",
    "bench_localized.py": "localized",
    "bench_pipeline.py": "pipeline",
    "bench_prepared.py": "prepared",
    "bench_sampling.py": "sampling",
    "bench_streaming.py": "streaming",
    "bench_suggestions.py": "suggestions",
    "bench_table1.py": "table1",
    "bench_tps.py": "tps",
    "bench_vectorized.py": "vectorized",
    "bench_zoom.py": "zoom",
}

# keep pytest-benchmark rounds minimal: smoke validates shape, not speed;
# GC stays off during timed rounds — at these tiny round counts a single
# gen2 pause lands in one round's mean and drowns the signal
PYTEST_ARGS = [
    "-q", "-p", "no:cacheprovider",
    "--benchmark-warmup=off", "--benchmark-min-rounds=1",
    "--benchmark-max-time=0.25", "--benchmark-disable-gc",
]


def run_bench(path: Path, artifact_dir: str) -> bool:
    env = dict(os.environ, **SMOKE_ENV)
    env["REPRO_BENCH_ARTIFACT_DIR"] = artifact_dir
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", str(path), *PYTEST_ARGS],
        cwd=REPO_ROOT, env=env,
    )
    return result.returncode == 0


def validate_artifact(path: Path) -> list[str]:
    """Schema errors for one artifact file (empty list when valid)."""
    errors: list[str] = []
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    if not isinstance(document, dict):
        return [f"{path.name}: top level is not an object"]
    name = document.get("name")
    if name != path.stem:
        errors.append(f"{path.name}: name {name!r} != file stem {path.stem!r}")
    if not isinstance(document.get("created_unix"), numbers.Real):
        errors.append(f"{path.name}: created_unix is not a number")
    payload = document.get("payload")
    if not isinstance(payload, dict) or not payload:
        errors.append(f"{path.name}: payload is not a non-empty object")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifact-dir", default=str(DEFAULT_ARTIFACT_DIR),
        help="where smoke artifacts land (matches the default input of "
             "check_bench_regression.py; committed artifacts stay untouched)",
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help="run every bench file even after one fails",
    )
    args = parser.parse_args(argv)

    artifact_dir = args.artifact_dir
    os.makedirs(artifact_dir, exist_ok=True)
    for stale in Path(artifact_dir).glob("*.json"):
        stale.unlink()  # never validate a previous run's leftovers

    bench_files = sorted(BENCH_DIR.glob("bench_*.py"))
    if not bench_files:
        print("no benchmark files found", file=sys.stderr)
        return 1

    failures: list[str] = []
    for path in bench_files:
        print(f"== {path.name}", flush=True)
        if not run_bench(path, artifact_dir):
            failures.append(f"{path.name}: pytest failed")
            if not args.keep_going:
                break

    errors: list[str] = []
    for bench_name, artifact_name in EXPECTED_ARTIFACTS.items():
        artifact_path = Path(artifact_dir) / f"{artifact_name}.json"
        if not artifact_path.exists():
            errors.append(f"{bench_name} wrote no {artifact_name}.json")
            continue
        errors.extend(validate_artifact(artifact_path))
    # anything else the run produced must be schema-valid too
    expected = {f"{name}.json" for name in EXPECTED_ARTIFACTS.values()}
    for path in sorted(Path(artifact_dir).glob("*.json")):
        if path.name not in expected:
            errors.extend(validate_artifact(path))

    for line in failures + errors:
        print(f"FAIL: {line}", file=sys.stderr)
    if not failures and not errors:
        n = len(list(Path(artifact_dir).glob("*.json")))
        print(f"smoke ok: {len(bench_files)} bench files, "
              f"{n} schema-valid artifacts in {artifact_dir}")
    return 1 if (failures or errors) else 0


if __name__ == "__main__":
    sys.exit(main())
