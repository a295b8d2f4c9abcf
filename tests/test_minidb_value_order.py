"""minidb orders, groups and matches values exactly as SQLite does.

A Hypothesis differential against the standard library's ``sqlite3`` over
one untyped column holding NULL, 64-bit integers (those next to 2**53
included, where a float cannot tell neighbours apart), floats and text.
Every check runs with and without an index on the column and in row and
batch mode: ORDER BY key sequences (ties in any order), MIN/MAX,
``GROUP BY … COUNT(*)`` and ``SELECT DISTINCT`` as multisets, and
equality and range lookups.
"""

from __future__ import annotations

import sqlite3
from collections import Counter
from contextlib import closing

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.minidb import Database
from repro.minidb.btree import BTreeIndex

BIG = 2 ** 53
HUGE = 10 ** 400

VALUES = st.one_of(
    st.none(),
    st.integers(-(2 ** 63 - 1), 2 ** 63 - 1),
    st.integers(-3, 3).map(lambda k: BIG + k),
    st.integers(-3, 3).map(lambda k: -BIG + k),
    st.sampled_from([float(BIG), float(-BIG), float(BIG + 2), 0.5, 1.0]),
    st.floats(allow_nan=False),
    st.text("abé中1 ", max_size=3),
)
ROWS = st.lists(VALUES, min_size=1, max_size=25)
CONFIGS = [(indexed, mode) for indexed in (False, True) for mode in ("off", "on")]


def canon(value):
    """SQL storage class and value: equal exactly when SQL calls the two
    values equal (``1`` and ``1.0`` included)."""
    if value is None:
        return (0,)
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, value)


def _sqlite(values):
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t (x BLOB)")
    conn.executemany("INSERT INTO t VALUES (?)", [(v,) for v in values])
    return conn


def _minidb(values, indexed: bool, mode: str) -> Database:
    db = Database()
    db.execute("CREATE TABLE t (x BLOB)")
    db.insert_rows("t", [(v,) for v in values])
    if indexed:
        db.execute("CREATE INDEX ix ON t (x)")
    db.pragma("vectorize", mode)
    return db


def _both(values):
    """``(config, run_minidb, run_sqlite)`` per index/vectorize config."""
    with closing(_sqlite(values)) as conn:
        for indexed, mode in CONFIGS:
            db = _minidb(values, indexed, mode)
            try:
                yield ((indexed, mode),
                       lambda sql, params=(): db.execute(sql, params).rows,
                       lambda sql, params=(): conn.execute(sql, params).fetchall())
            finally:
                db.close()


@settings(max_examples=60, deadline=None)
@given(values=ROWS)
@example(values=[BIG, BIG + 1, 5])
@example(values=[float(BIG), BIG + 1, None, "a", -BIG - 1])
def test_order_min_max_group_and_distinct_match_sqlite(values):
    for config, ours, theirs in _both(values):
        for sql in ("SELECT x FROM t ORDER BY x",
                    "SELECT x FROM t ORDER BY x DESC",
                    "SELECT x FROM t ORDER BY x DESC LIMIT 3"):
            assert ([canon(x) for (x,) in ours(sql)]
                    == [canon(x) for (x,) in theirs(sql)]), (config, sql)
        sql = "SELECT MIN(x), MAX(x) FROM t"
        assert ([tuple(map(canon, row)) for row in ours(sql)]
                == [tuple(map(canon, row)) for row in theirs(sql)]), (config, sql)
        for sql in ("SELECT x, COUNT(*) FROM t GROUP BY x",
                    "SELECT DISTINCT x FROM t"):
            def bag(rows):
                return Counter((canon(row[0]),) + row[1:] for row in rows)
            assert bag(ours(sql)) == bag(theirs(sql)), (config, sql)


@settings(max_examples=60, deadline=None)
@given(values=ROWS, data=st.data())
@example(values=[BIG, BIG + 1, 5], data=None)
def test_lookups_match_sqlite(values, data):
    present = [v for v in values if v is not None]
    probe = (BIG if data is None
             else data.draw(st.one_of(st.sampled_from(present), VALUES)
                            if present else VALUES))
    for config, ours, theirs in _both(values):
        for op in ("=", "<", ">="):
            sql = f"SELECT rowid FROM t WHERE x {op} ?"
            assert (sorted(r for (r,) in ours(sql, (probe,)))
                    == sorted(r for (r,) in theirs(sql, (probe,)))), (config, sql, probe)


def test_an_index_probe_and_a_scan_agree_next_to_two_to_the_53():
    db = _minidb([BIG, BIG + 1, 5], indexed=True, mode="off")
    sql = "SELECT rowid FROM t WHERE x = ?"
    assert "IndexEqScan" in db.explain(sql, (BIG,))
    assert db.execute(sql, (BIG,)).rows == [(1,)]
    assert db.execute(sql, (float(BIG),)).rows == [(1,)]
    assert db.execute(sql, (BIG + 1,)).rows == [(2,)]
    db.close()


def test_numeric_helpers_keep_integers_beyond_float_range():
    index = BTreeIndex("i", "x", 0)
    for rowid, value in enumerate([BIG, BIG + 1, 5, HUGE, -HUGE, "text", None], 1):
        index.insert(value, rowid)
    assert sorted(index.numeric_range(5, None)) == [1, 2, 3, 4]
    assert sorted(index.numeric_range(BIG, None, include_low=False)) == [2, 4]
    assert list(index.numeric_range(None, 5, include_high=False)) == [5]
    assert index.numeric_max() == HUGE and index.numeric_min() == -HUGE
