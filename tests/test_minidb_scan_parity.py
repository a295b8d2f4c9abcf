"""Scan parity: every access path returns the same rows on every read path.

``scan_rows`` is one walk with two resolutions — the live rows of a
quiescent database, or the version chains an MVCC snapshot sees.  For each
``ScanPlan`` kind (pinned with EXPLAIN) plus a merge join, this oracle
checks that

* the default session on a quiescent database (live path),
* an autocommit read on a ``db.connect()`` connection (snapshot path), and
* a cursor opened *before* UPDATE/DELETE/INSERT statements that leave
  stale index entries behind, drained after them,

all return the rows an unindexed twin database returns for the same SQL,
order-exact on the ordering key for ordered kinds.  After the DML a fresh
snapshot — walking the stale entries while the old cursor still pins them
— and then the live path (once GC has reclaimed them) must agree with the
twin again.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minidb import Database
from repro.minidb.executor import run_select_plan
from repro.minidb.expressions import sort_key
from repro.minidb.parser import parse
from repro.minidb.plan_cache import select_plan

SCHEMA = [
    "CREATE TABLE t (k INTEGER, v REAL, s TEXT, m)",
    "CREATE TABLE u (k, y INTEGER)",
]
INDEXES = [
    "CREATE INDEX t_k ON t (k)",
    "CREATE INDEX t_kv ON t (k, v)",
    "CREATE INDEX t_s ON t (s) USING hash",
    "CREATE INDEX t_sk ON t (s, k) USING hash",
    "CREATE INDEX t_m ON t (m)",
    "CREATE INDEX u_k ON u (k)",
]

K = st.sampled_from([0, 1, 2, 3, None])
V = st.one_of(st.sampled_from([0, 1, 2.5, -1.5, "12k", None]),
              st.integers(-3, 3))
S = st.sampled_from(["a", "b", "c", None])
M = st.one_of(st.sampled_from([1, 2.5, "x", "y", None]), st.integers(-2, 2))
T_ROW = st.tuples(K, V, S, M)
U_ROW = st.tuples(M, st.integers(0, 9))

# (sql, parameter strategies, EXPLAIN operator, output position of the
# ordering key or None for unordered kinds)
QUERIES = [
    ("SELECT rowid, * FROM t WHERE rowid = ?", (st.integers(0, 40),),
     "RowidLookup(t)", None),
    ("SELECT rowid, * FROM t WHERE rowid IN (?, ?, ?)",
     (st.integers(0, 40), st.integers(0, 40), st.sampled_from([1, 1.0, None])),
     "RowidLookup(t, 3 keys)", None),
    ("SELECT rowid, * FROM t WHERE k = ?", (K,),
     "IndexEqScan(t.k via t_k)", None),
    ("SELECT rowid, * FROM t WHERE s = ?", (S,),
     "IndexEqScan(t.s via t_s)", None),
    ("SELECT rowid, * FROM t WHERE k IN (?, ?, ?)",
     (K, K, st.sampled_from([1.0, 2, None])),
     "IndexInScan(t.k via t_k, 3 keys)", None),
    ("SELECT rowid, * FROM t WHERE s IN (?, ?)", (S, S),
     "IndexInScan(t.s via t_s, 2 keys)", None),
    ("SELECT rowid, * FROM t WHERE s = ? AND k = ?", (S, K),
     "IndexEqScan(t.(s, k) via t_sk, 2 cols)", None),
    ("SELECT rowid, * FROM t WHERE k = ? AND v = ?", (K, V),
     "IndexEqScan(t.(k, v) via t_kv, 2 cols)", None),
    ("SELECT rowid, * FROM t WHERE k = ? ORDER BY v", (K,),
     "IndexOrderScan(t.(k, v) via t_kv, eq_prefix=1)", 2),
    ("SELECT rowid, * FROM t WHERE k = ? ORDER BY v DESC", (K,),
     "IndexOrderScan(t.(k, v) via t_kv, eq_prefix=1, DESC)", 2),
    ("SELECT rowid, * FROM t WHERE k = ? AND v > ? ORDER BY v", (K, V),
     "IndexOrderScan(t.(k, v) via t_kv, eq_prefix=1, range=?..+inf)", 2),
    ("SELECT rowid, * FROM t WHERE k = ? AND v <= ? ORDER BY v DESC", (K, V),
     "IndexOrderScan(t.(k, v) via t_kv, eq_prefix=1, range=-inf..?, DESC)", 2),
    ("SELECT rowid, * FROM t WHERE k = ? AND v BETWEEN ? AND ? ORDER BY v",
     (K, V, V), "IndexOrderScan(t.(k, v) via t_kv, eq_prefix=1, range=?..?)", 2),
    ("SELECT rowid, * FROM t WHERE m IS NULL", (),
     "IndexNullScan(t.m via t_m)", None),
    ("SELECT rowid, * FROM t WHERE m > ?", (M,),
     "IndexRangeScan(t.m via t_m, ?..+inf)", None),
    ("SELECT rowid, * FROM t WHERE m < ? ORDER BY m DESC", (M,),
     "IndexRangeScan(t.m via t_m, -inf..?, DESC)", 4),
    ("SELECT rowid, * FROM t WHERE m BETWEEN ? AND ? ORDER BY m", (M, M),
     "IndexRangeScan(t.m via t_m, ?..?)", 4),
    ("SELECT rowid, * FROM t ORDER BY m", (),
     "IndexOrderScan(t.m via t_m)", 4),
    ("SELECT rowid, * FROM t ORDER BY m DESC", (),
     "IndexOrderScan(t.m via t_m, DESC)", 4),
    ("SELECT rowid, * FROM t", (), "SeqScan(t)", None),
    ("SELECT t.rowid, t.m, u.rowid, u.y FROM t JOIN u ON t.m = u.k "
     "ORDER BY t.m", (), "MergeJoin(u, key=k)", 1),
]

# DML run while a cursor is open: every statement is versioned, so the
# indexes keep the superseded keys until GC
DML = st.one_of(
    st.tuples(st.just("UPDATE t SET k = ? WHERE rowid = ?"), st.tuples(K, st.integers(1, 30))),
    st.tuples(st.just("UPDATE t SET v = ? WHERE rowid = ?"), st.tuples(V, st.integers(1, 30))),
    st.tuples(st.just("UPDATE t SET s = ? WHERE rowid = ?"), st.tuples(S, st.integers(1, 30))),
    st.tuples(st.just("UPDATE t SET m = ? WHERE rowid = ?"), st.tuples(M, st.integers(1, 30))),
    st.tuples(st.just("UPDATE t SET m = ? WHERE k = ?"), st.tuples(M, K)),
    st.tuples(st.just("DELETE FROM t WHERE rowid = ?"), st.tuples(st.integers(1, 30))),
    st.tuples(st.just("DELETE FROM t WHERE s = ?"), st.tuples(S)),
    st.tuples(st.just("INSERT INTO t (k, v, s, m) VALUES (?, ?, ?, ?)"), T_ROW),
    st.tuples(st.just("UPDATE u SET k = ? WHERE rowid = ?"), st.tuples(M, st.integers(1, 12))),
    st.tuples(st.just("DELETE FROM u WHERE rowid = ?"), st.tuples(st.integers(1, 12))),
    st.tuples(st.just("INSERT INTO u (k, y) VALUES (?, ?)"), U_ROW),
)


def _database(t_rows, u_rows, indexed: bool) -> Database:
    db = Database()
    for sql in SCHEMA:
        db.execute(sql)
    db.insert_rows("t", t_rows)
    db.insert_rows("u", u_rows)
    if indexed:
        for sql in INDEXES:
            db.execute(sql)
    return db


def _assert_same(got, expected, order_pos) -> None:
    """Equal rows as multisets; for ordered kinds also the exact sequence
    of ordering keys (rows tied on the key may come in any order)."""
    assert sorted(map(repr, got)) == sorted(map(repr, expected))
    if order_pos is not None:
        assert ([sort_key(row[order_pos]) for row in got]
                == [sort_key(row[order_pos]) for row in expected])


@settings(max_examples=40, deadline=None)
@given(
    t_rows=st.lists(T_ROW, min_size=1, max_size=30),
    dml=st.lists(DML, min_size=1, max_size=8),
    data=st.data(),
)
def test_scan_paths_agree(t_rows, dml, data):
    # u no larger than half of t keeps t the join's streaming side and u
    # the merge join's build side
    u_rows = data.draw(st.lists(U_ROW, max_size=len(t_rows) // 2))
    db = _database(t_rows, u_rows, indexed=True)
    twin = _database(t_rows, u_rows, indexed=False)
    queries = [
        (sql, tuple(data.draw(p) for p in params), op, order_pos)
        for sql, params, op, order_pos in QUERIES
    ]

    # live path, each query's access path pinned
    plans = []
    for sql, params, op, order_pos in queries:
        assert op in db.explain(sql, params)
        assert not db.mvcc_engaged()
        expected = twin.execute(sql, params).rows
        _assert_same(db.execute(sql, params).rows, expected, order_pos)
        plans.append(select_plan(db, parse(sql))[0])
    before = [twin.execute(sql, params).rows for sql, params, _, _ in queries]

    # snapshot path: autocommit reads on a connection
    conn = db.connect()
    for (sql, params, _, order_pos), expected in zip(queries, before):
        _assert_same(conn.execute(sql, params).rows, expected, order_pos)
    conn.close()

    # cursors opened before the DML still read exactly their rows after it
    cursors = [db.stream(sql, params) for sql, params, _, _ in queries]
    pin = db.stream("SELECT rowid FROM t")  # keeps the stale entries alive
    for sql, params in dml:
        assert db.execute(sql, params).rowcount == twin.execute(sql, params).rowcount
    for cursor, (_, _, _, order_pos), expected in zip(cursors, queries, before):
        _assert_same(list(cursor), expected, order_pos)

    # a fresh snapshot walks past the stale entries; once the pin is gone
    # and GC has reclaimed them, the live path agrees as well
    for plan, (sql, params, _, order_pos) in zip(plans, queries):
        snapshot = db.txn.read_snapshot()
        rows = run_select_plan(plan, params, snapshot=snapshot,
                               release=lambda s=snapshot: db.txn.release(s)).rows
        _assert_same(rows, twin.execute(sql, params).rows, order_pos)
    pin.close()
    assert not db.mvcc_engaged()
    for plan, (sql, params, _, order_pos) in zip(plans, queries):
        _assert_same(run_select_plan(plan, params).rows,
                     twin.execute(sql, params).rows, order_pos)
