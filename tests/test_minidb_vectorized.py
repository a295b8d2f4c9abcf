"""Property: row and batch pipelines return bit-identical results.

The planner's ``_vectorize`` pass may lower any analytic plan onto
columnar batch operators, but the answer — values, storage classes,
row order — must never change.  The suite drives a query corpus through
``pragma("vectorize", ...)`` in all three modes over adversarial data
(NULLs, bools, floats, huge ints past 2^53, numeric-looking text) and
compares ``repr`` for exactness, plus the mode-specific contracts: the
plan-cache key covers the knob, EXPLAIN labels batch operators, ANALYZE
counts logical rows, and MVCC snapshots fall back to row scans.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DatabaseError
from repro.minidb import Database

MODES = ("off", "on", "auto")

CATEGORIES = ["a", "b", "c", "d", None]

# global aggregates, grouped aggregates and filters: every shape the
# _vectorize pass may lower, each with an ORDER BY (or a single output
# row) so comparisons are order-exact, not just set-equal
QUERIES = [
    ("SELECT COUNT(*), COUNT(val), SUM(val), AVG(val) FROM t", ()),
    ("SELECT MIN(val), MAX(val), MIN(cat), MAX(cat) FROM t", ()),
    ("SELECT COUNT(*), SUM(val) FROM t WHERE val > ?", (0,)),
    ("SELECT COUNT(*) FROM t WHERE val BETWEEN ? AND ?", (-10, 10)),
    ("SELECT COUNT(*) FROM t WHERE val NOT BETWEEN ? AND ?", (-10, 10)),
    ("SELECT COUNT(*) FROM t WHERE cat <> 'c' AND val <= 25", ()),
    ("SELECT COUNT(*) FROM t WHERE cat IN ('a', 'c')", ()),
    ("SELECT COUNT(*) FROM t WHERE val IS NULL", ()),
    ("SELECT COUNT(*) FROM t WHERE val IS NOT NULL AND cat = ?", ("b",)),
    ("SELECT cat, COUNT(*), SUM(val), AVG(val), MIN(val), MAX(val) "
     "FROM t GROUP BY cat ORDER BY cat", ()),
    ("SELECT cat, COUNT(*) FROM t WHERE val >= ? GROUP BY cat "
     "HAVING COUNT(*) > 1 ORDER BY cat", (-20,)),
    ("SELECT rowid, cat, val FROM t WHERE val < ? ORDER BY rowid", (30,)),
]


def _make_db(rows):
    db = Database()
    db.execute("CREATE TABLE t (cat TEXT, val REAL)")
    db.executemany("INSERT INTO t VALUES (?, ?)", rows)
    return db


def _answers(db, sql, params):
    out = {}
    for mode in MODES:
        db.pragma("vectorize", mode)
        out[mode] = list(map(repr, db.execute(sql, params).rows))
    db.pragma("vectorize", "auto")
    return out


@st.composite
def _dataset(draw):
    n = draw(st.integers(5, 60))
    rows = []
    for _ in range(n):
        cat = draw(st.sampled_from(CATEGORIES))
        val = draw(st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-50, 50),
            st.integers(2 ** 53, 2 ** 60),  # beyond exact float range
            st.floats(-1e3, 1e3),
            st.sampled_from(["12k", "oops"]),  # text contamination
        ))
        rows.append((cat, val))
    return rows


@settings(max_examples=60, deadline=None)
@given(_dataset())
def test_property_modes_agree(rows):
    db = _make_db(rows)
    for sql, params in QUERIES:
        answers = _answers(db, sql, params)
        assert answers["off"] == answers["on"], (sql, rows)
        assert answers["off"] == answers["auto"], (sql, rows)


class TestParityCorners:
    def test_empty_table_global_aggregate(self):
        db = _make_db([])
        for sql in ("SELECT COUNT(*), SUM(val), AVG(val), MIN(val) FROM t",
                    "SELECT COUNT(*) FROM t WHERE val > 5"):
            answers = _answers(db, sql, ())
            assert answers["off"] == answers["on"] == answers["auto"], sql
        db.pragma("vectorize", "on")
        assert db.execute("SELECT COUNT(*), SUM(val) FROM t").rows == [(0, None)]
        # grouped aggregate over no input yields no groups
        assert db.execute("SELECT cat, COUNT(*) FROM t GROUP BY cat").rows == []

    def test_sum_result_class_tracks_inputs(self):
        """SUM stays int over ints, goes float once a float contributes."""
        db = Database()
        db.execute("CREATE TABLE t (v INT)")  # INT affinity keeps int class
        db.executemany("INSERT INTO t VALUES (?)", [(1,), (2,), (3,)])
        db.pragma("vectorize", "on")
        total = db.execute("SELECT SUM(v) FROM t").scalar()
        assert total == 6 and type(total) is int
        db.execute("INSERT INTO t VALUES (?)", (0.5,))
        total = db.execute("SELECT SUM(v) FROM t").scalar()
        assert total == 6.5 and type(total) is float

    def test_min_max_exact_past_float_precision(self):
        """2^53 + 1 and 2^53 + 2 compare equal as floats; MIN/MAX must
        break the tie exactly like the row engine's first-seen scan."""
        db = Database()
        db.execute("CREATE TABLE t (v INT)")
        db.executemany("INSERT INTO t VALUES (?)",
                       [(2 ** 53 + 2,), (2 ** 53 + 1,), (2 ** 53 + 2,)])
        answers = _answers(db, "SELECT MIN(v), MAX(v) FROM t", ())
        assert answers["off"] == answers["on"]

    def test_mixed_numeric_classes_sum_exactly(self):
        """Int/float mixtures past 2^53: the batch accumulator must add
        in the same order with the same class promotions as the row one."""
        db = Database()
        db.execute("CREATE TABLE t (v INT)")
        db.executemany("INSERT INTO t VALUES (?)",
                       [(2 ** 53 + 1,), (0.5,), (1,), (None,), (-2 ** 53,)])
        answers = _answers(
            db, "SELECT COUNT(*), COUNT(v), SUM(v), AVG(v) FROM t", ())
        assert answers["off"] == answers["on"]

    def test_pragma_rejects_unknown_mode(self):
        db = Database()
        assert db.pragma("vectorize") == "auto"
        db.pragma("vectorize", "on")
        assert db.pragma("vectorize") == "on"
        with pytest.raises(DatabaseError):
            db.pragma("vectorize", "sometimes")


class TestPlanChoice:
    def _analytic_db(self, n=600):
        db = Database()
        db.execute("CREATE TABLE t (cat TEXT, val REAL)")
        db.executemany("INSERT INTO t VALUES (?, ?)",
                       [(f"c{i % 4}", float(i)) for i in range(n)])
        db.analyze()
        return db

    def test_auto_batches_large_analytic_queries(self):
        db = self._analytic_db()
        plan = db.explain("SELECT COUNT(*), SUM(val) FROM t WHERE val > 10")
        assert "[batch]" in plan
        assert "SeqScan" in plan

    def test_auto_keeps_rows_for_point_shapes(self):
        db = self._analytic_db()
        # LIMIT-bounded streaming shapes keep the early-exit row pipeline
        assert "[batch]" not in db.explain(
            "SELECT rowid FROM t ORDER BY val LIMIT 5")

    def test_auto_keeps_rows_below_min_rows(self):
        db = self._analytic_db(n=50)
        assert "[batch]" not in db.explain("SELECT COUNT(*) FROM t")

    def test_off_never_batches(self):
        db = self._analytic_db()
        db.pragma("vectorize", "off")
        assert "[batch]" not in db.explain("SELECT COUNT(*), SUM(val) FROM t")

    def test_plan_cache_invalidates_on_pragma_flip(self):
        """Flipping the knob must re-plan, not serve the cached tree."""
        db = self._analytic_db()
        sql = "SELECT COUNT(*), SUM(val) FROM t"
        assert "[batch]" in db.explain(sql)
        assert db.explain(sql).splitlines()[0] == "cache: hit"
        db.pragma("vectorize", "off")
        plan = db.explain(sql)
        assert "[batch]" not in plan  # a stale hit would still carry labels
        db.pragma("vectorize", "auto")
        assert "[batch]" in db.explain(sql)

    def test_explain_analyze_reports_logical_rows(self):
        """Batch operators report selected logical rows, not batch counts."""
        db = self._analytic_db()
        plan = db.explain("SELECT COUNT(*), SUM(val) FROM t WHERE val < 100",
                          analyze=True)
        assert "[batch]" in plan
        scan_rows = [line for line in plan.splitlines() if "SeqScan" in line]
        assert scan_rows and "rows=600" in scan_rows[0], plan
        filter_rows = [line for line in plan.splitlines() if "Filter" in line]
        assert filter_rows and "rows=100" in filter_rows[0], plan


class TestSnapshotFallback:
    def test_batch_plan_inside_snapshot_transaction(self):
        """A cached batch plan stays correct under MVCC: the scan resolves
        version chains row-at-a-time and re-batches."""
        db = Database()
        db.execute("CREATE TABLE t (v REAL)")
        db.executemany("INSERT INTO t VALUES (?)",
                       [(float(i),) for i in range(700)])
        db.analyze()
        db.pragma("vectorize", "on")
        sql = "SELECT COUNT(*), SUM(v) FROM t"
        before = db.execute(sql).rows
        reader = db.connect()
        writer = db.connect()
        reader.execute("BEGIN")
        assert list(reader.execute(sql)) == before  # snapshot established
        writer.execute("INSERT INTO t VALUES (?)", (10_000.0,))
        # the reader's snapshot must not see the concurrent insert
        assert list(reader.execute(sql)) == before
        reader.commit()
        assert list(reader.execute(sql)) != before
        reader.close()
        writer.close()
