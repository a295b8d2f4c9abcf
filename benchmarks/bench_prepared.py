"""A7 — prepared-statement plan caching on the interactive drilldown shape.

The paper's sessions fire the *same* parameterized point query per group,
per column, per zoom step.  At interactive row counts the result is tiny,
so planner time (conjunct classification, access-path choice, expression
compilation) dominates the per-call cost.  This benchmark measures that
amortization: one repeated small-result point query executed

* ``prepared``  — through one ``db.prepare()`` handle (plan cached on the
  statement, rebound per call);
* ``text``      — through ``db.execute(sql, params)`` (statement cache
  lookup by SQL text per call, then the statement's cached plan);
* ``replan``    — planning the parsed statement afresh on every call
  (``plan_select`` then ``run_select_plan``), the cost caching avoids.

The measured numbers land in ``benchmarks/artifacts/prepared.json``.
"""

import os

import pytest

from repro.bench import print_generic, write_json_artifact
from repro.minidb import Database, PreparedStatement
from repro.minidb.executor import run_select_plan
from repro.minidb.parser import parse
from repro.minidb.planner import plan_select

N_ROWS = int(os.environ.get("REPRO_PREPARED_ROWS", "50000"))
N_CATEGORIES = 50
QUERY = "SELECT val FROM t WHERE cat = ? AND val >= ? ORDER BY val LIMIT 5"
PARAM = ("c7", 0.0)

MODES = ("prepared", "text", "replan")

_RESULTS: dict = {}


def _populate(db: Database) -> None:
    db.execute("CREATE TABLE t (cat TEXT, val REAL)")
    db.insert_rows(
        "t",
        [
            (f"c{i % N_CATEGORIES}", float((i * 7919) % 999983))
            for i in range(N_ROWS)
        ],
    )
    db.execute("CREATE INDEX idx_cat_val ON t (cat, val)")
    db.analyze()  # post-load step: discards cached plans; estimates are live


@pytest.fixture(scope="module")
def db() -> Database:
    db = Database()
    _populate(db)
    return db


def _runner(mode: str, db):
    if mode == "prepared":
        stmt = db.prepare(QUERY)
        return lambda: stmt.execute(PARAM).rows
    if mode == "text":
        return lambda: db.execute(QUERY, PARAM).rows
    statement = parse(QUERY)
    return lambda: run_select_plan(plan_select(db, statement), PARAM).rows


def _record(mode: str, benchmark) -> None:
    _RESULTS[mode] = benchmark.stats.stats.mean
    if not all(m in _RESULTS for m in MODES):
        return
    prepared = _RESULTS["prepared"]
    payload = {
        "n_rows": N_ROWS,
        "n_categories": N_CATEGORIES,
        "query": QUERY,
        "modes": {m: {"seconds": _RESULTS[m]} for m in MODES},
        "speedup_vs_replan": _RESULTS["replan"] / prepared,
        "speedup_text_vs_replan": _RESULTS["replan"] / _RESULTS["text"],
    }
    rows = [
        [m, f"{_RESULTS[m] * 1e6:.1f} us", f"{_RESULTS[m] / prepared:.1f}x"]
        for m in MODES
    ]
    print_generic(
        f"A7 — plan caching on a repeated point query "
        f"({N_ROWS} rows, {N_CATEGORIES} categories)",
        ["Mode", "Latency", "vs prepared"],
        rows,
    )
    path = write_json_artifact("prepared", payload)
    print(f"artifact: {path}")


@pytest.mark.parametrize("mode", MODES)
def test_repeated_point_query(benchmark, mode, db):
    run = _runner(mode, db)
    result = benchmark(run)
    assert 0 < len(result) <= 5
    values = [v for (v,) in result]
    assert values == sorted(values)
    _record(mode, benchmark)


def test_prepared_acceptance(db):
    """Cache behavior and the speedup caching must deliver."""
    db.execute(QUERY, PARAM)
    plan = db.explain(QUERY)
    assert plan.splitlines()[0] == "cache: hit"
    assert "IndexOrderScan" in plan  # the composite walk, cached and rebound
    fresh = PreparedStatement(db, QUERY, parse(QUERY))
    assert fresh.explain().splitlines()[0] == "cache: miss"
    if all(m in _RESULTS for m in MODES):
        speedup = _RESULTS["replan"] / _RESULTS["prepared"]
        # planning is ~2-3x the execution cost of this shape (typically
        # ~3.5x end-to-end); the floor leaves headroom for noisy CI boxes
        assert speedup >= 1.5, f"expected >=1.5x, measured {speedup:.2f}x"
