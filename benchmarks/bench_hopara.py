"""E2 — the §6.2 Hopara evaluation.

Paper: "we measured the latency of row removal triggered from an
interactive Hopara bar chart.  Across 20 interactions, the average response
time was 173 ms and 201 ms for the Adult Income dataset, and the
StackOverFlow dataset, respectively" (AWS-hosted Postgres).

Shape to reproduce: interactive-grade mean latency (well under a second)
for click-to-remove from a drilled bar chart.  Each removal is one SQL
DELETE; the chart on screen is refreshed by patching the affected bar from
the delete's change event, not by re-running its GROUP BY.  Mean and p95
latencies go to ``hopara.json``.
"""

import pytest

from repro.bench import TimingSummary, print_hopara, write_json_artifact
from repro.zoom import DrillDownApp

from benchmarks.conftest import (
    BENCH_SCALE, DATASET_COLUMNS, DATASET_LABELS, make_session,
)

N_INTERACTIONS = 20

_RESULTS: dict = {}


def _drilldown_removals(app: DrillDownApp) -> list[float]:
    latencies = []
    view = app.current_view()
    app.drill_into(view.bars[0][0])
    victims = app.visible_row_ids(limit=N_INTERACTIONS)
    for row_id in victims[:N_INTERACTIONS]:
        _view, seconds = app.remove_row(row_id)
        latencies.append(seconds)
    return latencies


@pytest.mark.parametrize("dataset", ["adult_income", "stackoverflow"])
def test_hopara_drilldown_removal(benchmark, dataset):
    """20 click-to-remove interactions from a drilled bar chart."""

    def setup():
        session = make_session(dataset, "sql")
        cats, _nums = DATASET_COLUMNS[dataset]
        app = DrillDownApp(session.backend, cats[:2])
        return (app,), {}

    latencies = benchmark.pedantic(
        _drilldown_removals, setup=setup, rounds=1, iterations=1,
    )
    summary = TimingSummary.of(latencies)
    _RESULTS[dataset] = summary
    assert summary.n == N_INTERACTIONS
    assert summary.mean < 1.0, "removal must stay interactive (paper: ~0.2 s)"
    if len(_RESULTS) == 2:
        path = write_json_artifact("hopara", {
            "scale": BENCH_SCALE, "interactions": N_INTERACTIONS,
            "removal_mean_seconds": {n: s.mean for n, s in _RESULTS.items()},
            "removal_p95_seconds": {n: s.p95 for n, s in _RESULTS.items()},
        })
        print(f"artifact: {path}")
        print_hopara([
            {
                "dataset": DATASET_LABELS[name],
                "n": s.n,
                "mean_ms": s.mean * 1000,
                "p95_ms": s.p95 * 1000,
            }
            for name, s in _RESULTS.items()
        ])
