"""A4 — ablation: indexed vs. sequential-scan lookups in minidb (§2).

"Buckaroo also creates Postgres indexes for all the attribute combinations
in the charts for efficient data lookups."  This benchmark measures the
query shapes the system issues constantly — group membership (equality),
viewport fetch (range), aggregate counts, and ranked top-k fetches — with
and without indexes.  The indexed top-k runs as an index-ordered scan that
touches ``k`` rows; unindexed it falls back to a bounded-heap TopK over
the full scan.  Results land in ``benchmarks/artifacts/indexes.json``.

The ``build`` section times what a user waits for before those lookups
can run — the upload path: bulk-loading the rows (``load_seconds``),
building a B+tree over them (``btree_index_seconds``) and the
planner-statistics rebuild
(``analyze_seconds``).  Each is the best of :data:`BUILD_REPEATS` runs.
"""

import gc
import time

import pytest

from repro.bench import print_generic, write_json_artifact
from repro.minidb import Database

N_ROWS = 20_000
N_CATEGORIES = 40
TOP_K = 10
BUILD_REPEATS = 3

_RESULTS: dict = {}
_BUILD: dict = {}


def _rows() -> list:
    return [(f"c{i % N_CATEGORIES}", float(i % 9973)) for i in range(N_ROWS)]


def _make_db(indexed: bool) -> Database:
    db = Database()
    db.execute("CREATE TABLE t (cat TEXT, val REAL)")
    db.insert_rows("t", _rows())
    if indexed:
        db.execute("CREATE INDEX idx_cat ON t (cat)")
        db.execute("CREATE INDEX idx_val ON t (val)")
    return db


def _timed(fn) -> float:
    # a full collection lands in whichever step crosses the threshold; start
    # every step collected so none pays for garbage another step left
    gc.collect()
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _build_seconds() -> dict:
    """Best-of-:data:`BUILD_REPEATS` timings of the upload path."""
    if _BUILD:
        return _BUILD
    rows = _rows()
    best: dict = {}
    for _ in range(BUILD_REPEATS):
        db = Database()
        db.execute("CREATE TABLE t (cat TEXT, val REAL)")
        steps = {
            "load_seconds": lambda: db.insert_rows("t", rows),
            "btree_index_seconds": lambda: db.execute(
                "CREATE INDEX idx_val ON t (val)"),
            "analyze_seconds": db.analyze,
        }
        for name, step in steps.items():
            elapsed = _timed(step)
            best[name] = min(best.get(name, elapsed), elapsed)
    _BUILD.update(best)
    return _BUILD


@pytest.fixture(scope="module")
def indexed_db():
    return _make_db(indexed=True)


@pytest.fixture(scope="module")
def seq_db():
    return _make_db(indexed=False)


def _record(name: str, mode: str, benchmark) -> None:
    _RESULTS[(name, mode)] = benchmark.stats.stats.mean
    queries = ("group_equality", "value_range", "count_aggregate", "top_k")
    if not all((q, m) in _RESULTS for q in queries for m in ("indexed", "seq")):
        return
    rows = []
    payload = {"n_rows": N_ROWS, "queries": {}, "build": _build_seconds()}
    for query in queries:
        indexed = _RESULTS[(query, "indexed")]
        seq = _RESULTS[(query, "seq")]
        rows.append([
            query, f"{indexed * 1000:.2f} ms", f"{seq * 1000:.2f} ms",
            f"{seq / indexed:.0f}x",
        ])
        payload["queries"][query] = {
            "indexed_seconds": indexed,
            "seq_seconds": seq,
            "speedup": seq / indexed,
        }
    print_generic(
        f"A4 — indexed vs sequential lookups ({N_ROWS} rows)",
        ["Query", "Indexed", "SeqScan", "Speedup"], rows,
    )
    print_generic(
        f"A4 — upload path ({N_ROWS} rows, best of {BUILD_REPEATS})",
        ["Step", "Time"],
        [[name, f"{seconds * 1000:.1f} ms"]
         for name, seconds in payload["build"].items()],
    )
    path = write_json_artifact("indexes", payload)
    print(f"artifact: {path}")


@pytest.mark.parametrize("mode", ["indexed", "seq"])
def test_group_membership_lookup(benchmark, mode, indexed_db, seq_db):
    db = indexed_db if mode == "indexed" else seq_db
    result = benchmark(
        lambda: db.execute("SELECT rowid FROM t WHERE cat = ?", ("c7",))
    )
    assert len(result) == N_ROWS // N_CATEGORIES
    _record("group_equality", mode, benchmark)


@pytest.mark.parametrize("mode", ["indexed", "seq"])
def test_value_range_lookup(benchmark, mode, indexed_db, seq_db):
    db = indexed_db if mode == "indexed" else seq_db
    result = benchmark(
        lambda: db.execute(
            "SELECT rowid FROM t WHERE val BETWEEN ? AND ?", (100.0, 140.0)
        )
    )
    assert len(result) > 0
    _record("value_range", mode, benchmark)


@pytest.mark.parametrize("mode", ["indexed", "seq"])
def test_group_count_aggregate(benchmark, mode, indexed_db, seq_db):
    db = indexed_db if mode == "indexed" else seq_db
    count = benchmark(
        lambda: db.execute(
            "SELECT COUNT(*) FROM t WHERE cat = ?", ("c3",)
        ).scalar()
    )
    assert count == N_ROWS // N_CATEGORIES
    _record("count_aggregate", mode, benchmark)


@pytest.mark.parametrize("mode", ["indexed", "seq"])
def test_top_k_fetch(benchmark, mode, indexed_db, seq_db):
    """Ranked fetch: index-ordered scan vs TopK heap over a full scan."""
    db = indexed_db if mode == "indexed" else seq_db
    result = benchmark(
        lambda: db.execute(f"SELECT rowid, val FROM t ORDER BY val LIMIT {TOP_K}")
    )
    assert len(result) == TOP_K
    assert [v for _, v in result.rows] == sorted(v for _, v in result.rows)
    _record("top_k", mode, benchmark)


def test_build_section_times_every_step():
    build = _build_seconds()
    assert set(build) == {"load_seconds", "btree_index_seconds",
                          "analyze_seconds"}
    assert all(seconds > 0 for seconds in build.values())


def test_plans_confirm_access_paths(indexed_db, seq_db):
    assert "IndexEqScan" in indexed_db.explain(
        "SELECT rowid FROM t WHERE cat = 'c7'")
    # a selective range: histogram-estimated wide ranges (e.g. val > 10,
    # ~100% of rows) now correctly demote to a vectorized SeqScan
    assert "IndexRangeScan" in indexed_db.explain(
        "SELECT rowid FROM t WHERE val < 10")
    assert "SeqScan" in seq_db.explain("SELECT rowid FROM t WHERE cat = 'c7'")
    # streaming-executor operators
    assert "IndexOrderScan" in indexed_db.explain(
        f"SELECT rowid FROM t ORDER BY val LIMIT {TOP_K}")
    assert "TopK" in seq_db.explain(
        f"SELECT rowid FROM t ORDER BY val LIMIT {TOP_K}")
    assert "IndexOrderScan" in indexed_db.explain(
        f"SELECT rowid FROM t ORDER BY val DESC LIMIT {TOP_K}")
