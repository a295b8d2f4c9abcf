"""Smoke test of the end-to-end benchmark (collected by the root ``pytest``).

Runs every workload of ``BENCHMARK.json`` at ``--smoke`` size, untraced and
traced, in a subprocess exactly as the driver does, and checks the shape of
what comes out — never a timing.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_benchmark(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], *args, "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_contract_names_are_well_formed():
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in CONTRACT[section]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert any(entry["name"] == "setup_s" and entry["unit"] == "s"
               for entry in CONTRACT["end_to_end"])


@pytest.mark.parametrize("trace, section",
                         [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in CONTRACT["workloads"]])
def test_workload_emits_exactly_the_declared_metrics(workload, trace, section):
    result = run_benchmark("--workload", workload, "--seed", "3",
                           "--seconds", "0.2", "--trace", trace)
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {entry["name"]: entry["unit"] for entry in CONTRACT[section]}
    assert list(result["metrics"]) == list(declared)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == declared[name]
        assert math.isfinite(entry["value"]), name
    if section == "end_to_end":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
