"""A2 — ablation: error-first / distance sampling vs. uniform (§4.1).

"Showing only a small sample risks hiding rare but critical errors."  With
the injector's ground truth we can measure exactly that: the fraction of
known-bad rows that survive into a fixed render budget under each strategy.

Shape to reproduce: error-first recall = 1.0 by construction; uniform
recall ~ budget / n_rows (rare errors mostly invisible).

Each strategy's mean sampling time, recall and sample size go to
``sampling.json``, next to ``detect_all_seconds``: the fastest of the three
set-ups' full detection pass on the frame backend.
"""

import os
import time

import pytest

from repro.bench import print_generic, write_json_artifact
from repro.backends import make_backend
from repro.config import BuckarooConfig
from repro.core.engine import DetectionEngine
from repro.core.groups import GroupManager
from repro.sampling import DistanceBasedSampler, ErrorFirstSampler, ReservoirSampler

from benchmarks.conftest import BENCH_SCALE, DATASET_COLUMNS, dataset_with_truth

BUDGET = 300

_ROWS: list = []
_DETECT_SECONDS: list = []
_STRATEGIES: dict = {}


def _record(strategy: str, benchmark, recall: float, size: int) -> None:
    """File one strategy's numbers; write the artifact once all three are in."""
    _STRATEGIES[strategy] = {
        "seconds": benchmark.stats.stats.mean, "recall": recall, "sample_size": size}
    if len(_STRATEGIES) == 3:
        path = write_json_artifact("sampling", {
            "scale": BENCH_SCALE, "cpu_count": os.cpu_count(),
            "detect_all_seconds": min(_DETECT_SECONDS), "strategies": _STRATEGIES})
        print(f"artifact: {path}")


def _detected_stackoverflow():
    frame, truth = dataset_with_truth("stackoverflow")
    backend = make_backend(frame, "frame")
    cats, nums = DATASET_COLUMNS["stackoverflow"]
    config = BuckarooConfig()
    manager = GroupManager(backend, config)
    manager.generate(cat_cols=cats, num_cols=nums)
    engine = DetectionEngine(backend, config)
    start = time.perf_counter()
    engine.detect_all(manager.groups.values())
    _DETECT_SECONDS.append(time.perf_counter() - start)
    # recall is measured against errors in the *charted* attributes —
    # errors in unprojected columns are outside every group by design
    truth_rows = {
        position + 1
        for entries in truth.cells.values()
        for position, column in entries
        if column in nums
    }
    return backend, manager, engine, truth_rows


def test_error_first_sampling_recall(benchmark):
    backend, manager, engine, truth_rows = _detected_stackoverflow()
    groups = list(manager.groups.values())
    sampler = ErrorFirstSampler(budget=BUDGET, context_per_group=3)

    sample = benchmark(lambda: sampler.sample_groups(groups, engine.index))
    recall = sample.error_recall(truth_rows)
    _ROWS.append(["error-first", f"{recall:.2f}", sample.size])
    _record("error_first", benchmark, recall, sample.size)
    assert recall == 1.0, "error-first must keep every known-bad row visible"


def test_distance_sampling_recall(benchmark):
    backend, manager, engine, truth_rows = _detected_stackoverflow()
    anomalous = sorted(engine.index.rows_with_errors())
    _cats, nums = DATASET_COLUMNS["stackoverflow"]
    sampler = DistanceBasedSampler(budget=max(BUDGET, len(anomalous) + 50))

    sample = benchmark(lambda: sampler.sample(backend, nums, anomalous))
    recall = sample.error_recall(truth_rows)
    _ROWS.append(["distance-based", f"{recall:.2f}", sample.size])
    _record("distance", benchmark, recall, sample.size)
    assert recall == 1.0  # anomalies always included; context is nearest rows


def test_uniform_sampling_recall(benchmark):
    backend, _manager, _engine, truth_rows = _detected_stackoverflow()
    all_rows = backend.all_row_ids()

    def uniform():
        sampler = ReservoirSampler(capacity=BUDGET, seed=3)
        sampler.extend(all_rows)
        return sampler.sample()

    sample = benchmark(uniform)
    recall = len(truth_rows & set(sample)) / len(truth_rows)
    expected = BUDGET / len(all_rows)
    _ROWS.append(["uniform reservoir", f"{recall:.2f}", len(sample)])
    _record("uniform", benchmark, recall, len(sample))
    print_generic(
        f"A2 — error recall at a {BUDGET}-point render budget "
        f"({len(all_rows)} rows, {len(truth_rows)} known-bad)",
        ["Strategy", "Recall", "Sample size"], _ROWS,
    )
    assert recall < 1.0, "uniform sampling must lose rare errors"
    assert recall == pytest.approx(expected, abs=0.25)
