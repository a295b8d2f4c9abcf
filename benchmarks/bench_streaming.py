"""A5 — streaming vs materialized execution in minidb.

The seed executor materialized a full row list at every SELECT stage, so
``LIMIT 10`` over a 100k-row table still touched 100k rows and
``ORDER BY indexed_col LIMIT 10`` fully sorted the table.  The streaming
pipeline short-circuits the scan at the limit, answers top-k with a
bounded heap, and satisfies single-key ascending orders straight from the
B+tree.  Each benchmark pits the streaming engine against an in-bench
emulation of the seed's materialize-everything path over the same storage,
and the measured before/after numbers land in a JSON artifact
(``benchmarks/artifacts/streaming.json``) so future PRs can track the
trajectory.
"""

import os

import pytest

from repro.bench import print_generic, write_json_artifact
from repro.minidb import Database
from repro.minidb.functions import sort_key

N_ROWS = int(os.environ.get("REPRO_STREAM_ROWS", "100000"))
LIMIT = 10

_RESULTS: dict = {}


@pytest.fixture(scope="module")
def db() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (cat TEXT, val REAL)")
    db.insert_rows(
        "t",
        [(f"c{i % 50}", float((i * 7919) % 999983)) for i in range(N_ROWS)],
    )
    db.execute("CREATE INDEX idx_val ON t (val)")
    db.execute("CREATE INDEX idx_cat ON t (cat)")
    return db


# -- seed-path emulations (materialize everything, then cut) -----------------


def _materialized_limit(db: Database) -> list:
    table = db.table("t")
    rows = [[rowid, *values] for rowid, values in table.scan()]
    projected = [(row[1], row[2]) for row in rows]
    return projected[:LIMIT]


def _materialized_order_limit(db: Database) -> list:
    table = db.table("t")
    rows = [[rowid, *values] for rowid, values in table.scan()]
    projected = [(row[1], row[2]) for row in rows]
    keyed = [((sort_key(row[2]),), out) for row, out in zip(rows, projected)]
    keyed.sort(key=lambda pair: pair[0])
    return [out for _, out in keyed][:LIMIT]


def _record(name: str, mode: str, benchmark) -> None:
    _RESULTS[(name, mode)] = benchmark.stats.stats.mean
    queries = ("scan_limit", "order_by_indexed_limit")
    if not all(
        (q, m) in _RESULTS for q in queries for m in ("streaming", "materialized")
    ):
        return
    rows = []
    payload = {"n_rows": N_ROWS, "limit": LIMIT, "queries": {}}
    for query in queries:
        streaming = _RESULTS[(query, "streaming")]
        materialized = _RESULTS[(query, "materialized")]
        speedup = materialized / streaming
        rows.append([
            query,
            f"{streaming * 1000:.3f} ms",
            f"{materialized * 1000:.3f} ms",
            f"{speedup:.0f}x",
        ])
        payload["queries"][query] = {
            "streaming_seconds": streaming,
            "materialized_seconds": materialized,
            "speedup": speedup,
        }
    print_generic(
        f"A5 — streaming vs materialized executor ({N_ROWS} rows, LIMIT {LIMIT})",
        ["Query", "Streaming", "Materialized", "Speedup"],
        rows,
    )
    path = write_json_artifact("streaming", payload)
    print(f"artifact: {path}")


@pytest.mark.parametrize("mode", ["streaming", "materialized"])
def test_scan_with_limit(benchmark, mode, db):
    if mode == "streaming":
        result = benchmark(
            lambda: db.execute(f"SELECT cat, val FROM t LIMIT {LIMIT}").rows
        )
    else:
        result = benchmark(lambda: _materialized_limit(db))
    assert len(result) == LIMIT
    _record("scan_limit", mode, benchmark)


@pytest.mark.parametrize("mode", ["streaming", "materialized"])
def test_order_by_indexed_column_with_limit(benchmark, mode, db):
    if mode == "streaming":
        result = benchmark(
            lambda: db.execute(
                f"SELECT cat, val FROM t ORDER BY val LIMIT {LIMIT}"
            ).rows
        )
    else:
        result = benchmark(lambda: _materialized_order_limit(db))
    assert len(result) == LIMIT
    assert [v for _, v in result] == sorted(v for _, v in result)
    _record("order_by_indexed_limit", mode, benchmark)


def test_streaming_acceptance(db):
    """The acceptance bar: >= 10x on ORDER BY indexed LIMIT, right plans."""
    plan = db.explain(f"SELECT cat, val FROM t ORDER BY val LIMIT {LIMIT}")
    assert "IndexOrderScan" in plan and "Limit" in plan
    plan = db.explain(
        f"SELECT cat, val FROM t ORDER BY val DESC LIMIT {LIMIT}"
    )
    assert "IndexOrderScan" in plan and "DESC" in plan  # reverse leaf walk
    if ("order_by_indexed_limit", "streaming") in _RESULTS:
        speedup = (
            _RESULTS[("order_by_indexed_limit", "materialized")]
            / _RESULTS[("order_by_indexed_limit", "streaming")]
        )
        assert speedup >= 10, f"expected >=10x, measured {speedup:.1f}x"
