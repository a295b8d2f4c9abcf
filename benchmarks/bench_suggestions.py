"""E5 — Figure 3's loop: select a group, rank suggestions, build previews.

Measures the latency of the repair-kit sidebar (speculative scoring of
every applicable wrangler) and of a single live chart preview, for the most
anomalous group of each dataset.
"""

import pytest

from repro.bench import print_generic, write_json_artifact

from benchmarks.conftest import BENCH_SCALE, DATASET_LABELS, make_session

_ROWS: list = []
_SECONDS: dict = {"suggest_seconds": {}, "preview_seconds": {}}


def _record(kind: str, dataset: str, benchmark) -> None:
    """File one mean latency; write the artifact once all six are in."""
    _SECONDS[kind][dataset] = benchmark.stats.stats.mean
    if all(len(done) == len(DATASET_LABELS) for done in _SECONDS.values()):
        path = write_json_artifact("suggestions", {"scale": BENCH_SCALE, **_SECONDS})
        print(f"artifact: {path}")


@pytest.mark.parametrize("dataset", list(DATASET_LABELS))
def test_suggestion_ranking_latency(benchmark, dataset):
    """Ranked, speculative-scored suggestions for the worst group."""
    session = make_session(dataset, "sql")
    worst = session.anomaly_summary().groups[0].key

    suggestions = benchmark(lambda: session.suggest(worst))
    assert suggestions
    assert suggestions[0].score >= suggestions[-1].score
    _record("suggest_seconds", dataset, benchmark)


@pytest.mark.parametrize("dataset", list(DATASET_LABELS))
def test_preview_latency(benchmark, dataset):
    """One before/after chart preview (Figure 3 B)."""
    session = make_session(dataset, "sql")
    worst = session.anomaly_summary().groups[0].key
    suggestion = session.suggest(worst, limit=1, score_plans=False)[0]

    preview = benchmark(lambda: session.preview(suggestion))
    assert preview.before.categories
    assert preview.after.categories
    _ROWS.append([DATASET_LABELS[dataset], len(preview.before.categories)])
    if len(_ROWS) == len(DATASET_LABELS):
        print_generic(
            "Figure 3 previews — categories rendered per preview",
            ["Dataset", "Categories"], _ROWS,
        )
    _record("preview_seconds", dataset, benchmark)
