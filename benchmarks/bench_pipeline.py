"""E4 — Figure 2's architecture data flow, stage by stage.

Times each stage of the pipeline the architecture diagram draws: the
frame build (``DataFrame.from_dict`` over the dataset's columns as lists,
the shape CSV ingest hands it), upload (load into storage), group
generation, full detection, error-first sampling, suggestion ranking for
the worst group, one applied repair, and the snapshot write.  Reported per
dataset on the SQL backend.
"""

import pytest

from repro._util import Stopwatch
from repro.bench import print_generic, write_json_artifact
from repro.core.session import BuckarooSession
from repro.frame import DataFrame
from repro.sampling import ErrorFirstSampler

from benchmarks.conftest import (
    DATASET_COLUMNS,
    DATASET_LABELS,
    dataset_with_truth,
)

# per-chart render budget of the error-first sampler (§4.1)
MAX_RENDER_POINTS = 500

_ROWS: list = []
_STAGES: dict = {}


def _pipeline(dataset: str) -> dict:
    frame, _truth = dataset_with_truth(dataset)
    stages: dict[str, float] = {}

    columns = frame.to_dict()
    with Stopwatch() as sw:
        DataFrame.from_dict(columns)
    stages["frame_build"] = sw.elapsed

    with Stopwatch() as sw:
        session = BuckarooSession.from_frame(frame, backend="sql")
    stages["upload"] = sw.elapsed

    cats, nums = DATASET_COLUMNS[dataset]
    with Stopwatch() as sw:
        session.generate_groups(cat_cols=cats, num_cols=nums)
    stages["group_generation"] = sw.elapsed

    with Stopwatch() as sw:
        summary = session.detect()
    stages["detection"] = sw.elapsed

    sampler = ErrorFirstSampler(budget=MAX_RENDER_POINTS)
    groups = [session.group(key) for key in session.groups()]
    with Stopwatch() as sw:
        sample = sampler.sample_groups(groups, session.engine.index)
    stages["sampling"] = sw.elapsed

    worst = summary.groups[0].key
    with Stopwatch() as sw:
        suggestions = session.suggest(worst, limit=3)
    stages["suggestions"] = sw.elapsed

    with Stopwatch() as sw:
        session.apply(suggestions[0])
    stages["apply"] = sw.elapsed

    with Stopwatch() as sw:
        stored = session.snapshot_store.total_bytes()
    stages["snapshot_accounting"] = sw.elapsed

    stages["_sample_size"] = sample.size
    stages["_snapshot_bytes"] = stored
    return stages


@pytest.mark.parametrize("dataset", list(DATASET_LABELS))
def test_pipeline_stages(benchmark, dataset):
    stages = benchmark.pedantic(
        _pipeline, args=(dataset,), rounds=1, iterations=1,
    )
    assert stages["detection"] > 0
    _STAGES[dataset] = {
        key: value for key, value in stages.items() if not key.startswith("_")
    }
    _ROWS.append([
        DATASET_LABELS[dataset],
        f"{stages['frame_build'] * 1000:.0f} ms",
        f"{stages['upload'] * 1000:.0f} ms",
        f"{stages['group_generation'] * 1000:.0f} ms",
        f"{stages['detection'] * 1000:.0f} ms",
        f"{stages['sampling'] * 1000:.0f} ms",
        f"{stages['suggestions'] * 1000:.0f} ms",
        f"{stages['apply'] * 1000:.0f} ms",
    ])
    if len(_ROWS) == len(DATASET_LABELS):
        print_generic(
            "Figure 2 pipeline — per-stage latency (SQL backend)",
            ["Dataset", "Build", "Upload", "Groups", "Detect", "Sample",
             "Suggest", "Apply"],
            _ROWS,
        )
        path = write_json_artifact("pipeline", {"stage_seconds": _STAGES})
        print(f"artifact: {path}")
