"""Tests for the streaming SELECT pipeline: short-circuiting limits,
top-k ordering, index-ordered scans, generalized hash joins, WHERE
pushdown below joins, and the streaming cursor API."""

import pytest

from repro.errors import DatabaseError, ExecutionError
from repro.minidb import Database, StreamingResult


@pytest.fixture
def big_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (cat TEXT, val REAL)")
    db.insert_rows(
        "t", [(f"c{i % 10}", float((i * 37) % 1009)) for i in range(2000)]
    )
    db.execute("CREATE INDEX idx_val ON t (val)")
    return db


class TestLimitShortCircuit:
    def test_limit_stops_the_scan(self):
        """A poisoned row past the limit is never evaluated."""
        db = Database()
        db.execute("CREATE TABLE t (v REAL)")
        db.insert_rows("t", [(float(i),) for i in range(50)])
        db.insert_rows("t", [("boom",)])  # arithmetic on text raises
        rows = db.execute("SELECT v + 1 FROM t LIMIT 5").scalars()
        assert rows == [1.0, 2.0, 3.0, 4.0, 5.0]
        with pytest.raises(ExecutionError):
            db.execute("SELECT v + 1 FROM t")

    def test_offset_also_streams(self):
        db = Database()
        db.execute("CREATE TABLE t (v INT)")
        db.insert_rows("t", [(i,) for i in range(20)])
        db.insert_rows("t", [("boom",)])
        rows = db.execute("SELECT v * 2 FROM t LIMIT 3 OFFSET 4").scalars()
        assert rows == [8, 10, 12]

    def test_limit_null_returns_everything(self, big_db):
        assert len(big_db.execute("SELECT rowid FROM t LIMIT NULL")) == 2000


class TestTopK:
    def test_matches_full_sort(self, big_db):
        top = big_db.execute(
            "SELECT val FROM t WHERE cat = 'c3' ORDER BY val DESC LIMIT 7"
        ).scalars()
        everything = big_db.execute(
            "SELECT val FROM t WHERE cat = 'c3' ORDER BY val DESC"
        ).scalars()
        assert top == everything[:7]

    def test_respects_offset(self, big_db):
        paged = big_db.execute(
            "SELECT val FROM t ORDER BY val DESC LIMIT 5 OFFSET 10"
        ).scalars()
        everything = big_db.execute(
            "SELECT val FROM t ORDER BY val DESC"
        ).scalars()
        assert paged == everything[10:15]

    def test_multi_key_order(self, big_db):
        top = big_db.execute(
            "SELECT cat, val FROM t ORDER BY cat, val DESC LIMIT 9"
        ).rows
        everything = big_db.execute(
            "SELECT cat, val FROM t ORDER BY cat, val DESC"
        ).rows
        assert top == everything[:9]

    def test_explain_shows_topk(self, big_db):
        # cat has no index to walk in order
        plan = big_db.explain("SELECT cat FROM t ORDER BY cat DESC LIMIT 7")
        assert "TopK" in plan and "Limit" in plan

    def test_order_without_limit_still_sorts(self, big_db):
        plan = big_db.explain("SELECT cat FROM t ORDER BY cat DESC")
        assert "Sort" in plan


class TestIndexOrderScan:
    def test_explain_and_result(self, big_db):
        plan = big_db.explain("SELECT val FROM t ORDER BY val LIMIT 10")
        assert "IndexOrderScan" in plan and "Sort" not in plan
        values = big_db.execute(
            "SELECT val FROM t ORDER BY val LIMIT 10"
        ).scalars()
        assert values == sorted(
            big_db.execute("SELECT val FROM t").scalars()
        )[:10]

    def test_residual_filter_keeps_order(self, big_db):
        values = big_db.execute(
            "SELECT val FROM t WHERE cat <> 'c3' ORDER BY val LIMIT 15"
        ).scalars()
        expected = sorted(
            big_db.execute("SELECT val FROM t WHERE cat <> 'c3'").scalars()
        )[:15]
        assert values == expected

    def test_nulls_keep_index_order_valid(self):
        """NULL-aware keys: NULLs are in the index, sorted first, so the
        ordered walk stays available on nullable columns."""
        db = Database()
        db.execute("CREATE TABLE t (v REAL)")
        db.insert_rows("t", [(3.0,), (None,), (1.0,)])
        db.execute("CREATE INDEX idx_v ON t (v)")
        plan = db.explain("SELECT v FROM t ORDER BY v LIMIT 2")
        assert "IndexOrderScan" in plan and "Sort" not in plan and "TopK" not in plan
        assert db.execute("SELECT v FROM t ORDER BY v LIMIT 2").scalars() == [None, 1.0]
        plan = db.explain("SELECT v FROM t ORDER BY v DESC")
        assert "IndexOrderScan" in plan
        assert db.execute(
            "SELECT v FROM t ORDER BY v DESC"
        ).scalars() == [3.0, 1.0, None]

    def test_desc_order_served_by_reverse_walk(self, big_db):
        plan = big_db.explain("SELECT val FROM t ORDER BY val DESC LIMIT 5")
        assert "IndexOrderScan" in plan and "DESC" in plan
        assert "TopK" not in plan and "Sort" not in plan
        values = big_db.execute(
            "SELECT val FROM t ORDER BY val DESC LIMIT 5"
        ).scalars()
        expected = sorted(
            big_db.execute("SELECT val FROM t").scalars(), reverse=True
        )[:5]
        assert values == expected


class TestHashJoinGeneralized:
    @pytest.fixture
    def db(self) -> Database:
        db = Database()
        db.execute("CREATE TABLE a (k TEXT, x INT)")
        db.execute("CREATE TABLE b (k TEXT, y INT)")
        db.insert_rows("a", [("p", 1), ("p", 2), ("q", 3), ("r", 4), (None, 5)])
        db.insert_rows("b", [("p", 10), ("p", 20), ("q", 30), ("s", 40), (None, 50)])
        return db

    def test_extra_conjunct_uses_hash_join(self, db):
        plan = db.explain(
            "SELECT a.x, b.y FROM a JOIN b ON a.k = b.k AND b.y > 10"
        )
        assert "HashJoin" in plan and "NestedLoopJoin" not in plan
        rows = db.execute(
            "SELECT a.x, b.y FROM a JOIN b ON a.k = b.k AND b.y > 10 "
            "ORDER BY a.x, b.y"
        ).rows
        assert rows == [(1, 20), (2, 20), (3, 30)]

    def test_left_join_residual_pads(self, db):
        rows = db.execute(
            "SELECT a.x, b.y FROM a LEFT JOIN b ON a.k = b.k AND b.y >= 30 "
            "ORDER BY a.x"
        ).rows
        assert rows == [(1, None), (2, None), (3, 30), (4, None), (5, None)]

    def test_mixed_side_conjunct_is_residual(self, db):
        rows = db.execute(
            "SELECT a.x, b.y FROM a JOIN b ON a.k = b.k AND a.x * 10 = b.y "
            "ORDER BY a.x"
        ).rows
        assert rows == [(1, 10), (2, 20), (3, 30)]

    def test_composite_equi_key(self, db):
        db.execute("CREATE TABLE c (k TEXT, y INT, tag TEXT)")
        db.insert_rows("c", [("p", 1, "hit"), ("p", 2, "hit2"), ("q", 1, "miss")])
        plan = db.explain(
            "SELECT a.x, c.tag FROM a JOIN c ON a.k = c.k AND a.x = c.y"
        )
        assert "HashJoin" in plan and "keys=2" in plan
        rows = db.execute(
            "SELECT a.x, c.tag FROM a JOIN c ON a.k = c.k AND a.x = c.y "
            "ORDER BY a.x"
        ).rows
        assert rows == [(1, "hit"), (2, "hit2")]

    def test_null_keys_never_match(self, db):
        n = db.execute(
            "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k"
        ).scalar()
        assert n == 5  # (p,p)x4 + (q,q); NULL keys excluded

    def test_non_equi_still_nested_loop(self, db):
        plan = db.explain("SELECT COUNT(*) FROM a JOIN b ON a.x < b.y")
        assert "NestedLoopJoin" in plan


class TestWherePushdown:
    @pytest.fixture
    def db(self, dirty_db) -> Database:
        dirty_db.execute("CREATE TABLE errors (ref INT, code TEXT)")
        dirty_db.executemany(
            "INSERT INTO errors VALUES (?, ?)",
            [(3, "type_mismatch"), (4, "outlier"), (6, "missing_value")],
        )
        return dirty_db

    def test_base_predicate_reaches_the_index(self, db):
        plan = db.explain(
            "SELECT s.country, e.code FROM salary s JOIN errors e "
            "ON s.rowid = e.ref WHERE s.country = 'Bhutan'"
        )
        assert "IndexEqScan" in plan and "idx_salary_country" in plan
        rows = db.execute(
            "SELECT s.country, e.code FROM salary s JOIN errors e "
            "ON s.rowid = e.ref WHERE s.country = 'Bhutan' ORDER BY e.code"
        ).rows
        assert rows == [("Bhutan", "outlier"), ("Bhutan", "type_mismatch")]

    def test_join_side_predicate_stays_above(self, db):
        plan = db.explain(
            "SELECT s.country FROM salary s JOIN errors e ON s.rowid = e.ref "
            "WHERE e.code = 'outlier'"
        )
        assert "SeqScan(salary)" in plan and "Filter" in plan
        rows = db.execute(
            "SELECT s.country FROM salary s JOIN errors e ON s.rowid = e.ref "
            "WHERE e.code = 'outlier'"
        ).scalars()
        assert rows == ["Bhutan"]

    def test_pushdown_below_left_join_is_safe(self, db):
        rows = db.execute(
            "SELECT s.rowid, e.code FROM salary s LEFT JOIN errors e "
            "ON s.rowid = e.ref WHERE s.country = 'Lesotho' ORDER BY s.rowid"
        ).rows
        assert rows == [(5, None), (6, "missing_value"), (7, None), (8, None)]


class TestDistinctUnhashable:
    def test_duplicate_unhashable_rows_collapse(self):
        """Unhashable markers dedupe via the linear-scan fallback."""
        db = Database()
        db.execute("CREATE TABLE t (v INT)")
        db.insert_rows("t", [([1, 2],), ([1, 2],), (5,), (5,), ([3],)])
        rows = db.execute("SELECT DISTINCT v FROM t").scalars()
        assert rows == [[1, 2], 5, [3]]


class TestStreamingCursor:
    def test_stream_returns_cursor(self, big_db):
        cursor = big_db.stream("SELECT rowid FROM t ORDER BY val LIMIT 5")
        assert isinstance(cursor, StreamingResult)
        assert cursor.columns == ["rowid"]
        first = cursor.fetchone()
        rest = cursor.fetchmany(10)
        assert first is not None and len(rest) == 4

    def test_stream_is_lazy(self):
        db = Database()
        db.execute("CREATE TABLE t (v REAL)")
        db.insert_rows("t", [(1.0,), (2.0,), ("boom",)])
        cursor = db.stream("SELECT v * 2 FROM t")
        assert cursor.fetchone() == (2.0,)
        assert cursor.fetchone() == (4.0,)
        with pytest.raises(ExecutionError):
            cursor.fetchone()

    def test_materialize_drains(self, big_db):
        result = big_db.stream("SELECT cat FROM t LIMIT 3").materialize()
        assert len(result) == 3 and result.columns == ["cat"]

    def test_stream_rejects_dml(self, big_db):
        with pytest.raises(DatabaseError):
            big_db.stream("DELETE FROM t")

    def test_capped_distinct_short_circuits(self):
        db = Database()
        db.execute("CREATE TABLE t (v INT)")
        db.insert_rows("t", [(i,) for i in range(100)])
        db.insert_rows("t", [("boom",)])
        cursor = db.stream("SELECT DISTINCT v + 0 FROM t LIMIT 5")
        assert len(cursor.fetchmany(5)) == 5  # never reaches the bad row


class TestSnapshotReleaseOnClose:
    """A cursor's snapshot must release even when no row was ever read.

    Regression: ``_with_release`` used to be a generator, and closing a
    never-advanced generator skips its ``finally`` — so a stream opened
    and immediately closed leaked its snapshot and pinned the GC
    horizon forever.
    """

    def test_unstarted_stream_releases_snapshot_on_close(self):
        db = Database()
        db.execute("CREATE TABLE t (v INT)")
        db.execute("INSERT INTO t VALUES (1)")
        cursor = db.stream("SELECT v FROM t")
        assert db.txn.outstanding_snapshots == 1
        cursor.close()
        assert db.txn.outstanding_snapshots == 0

    def test_unstarted_stream_close_unpins_gc(self):
        db = Database()
        db.execute("CREATE TABLE t (v INT)")
        db.execute("INSERT INTO t VALUES (1)")
        cursor = db.stream("SELECT v FROM t")
        db.execute("DELETE FROM t WHERE v = 1")
        table = db.table("t")
        assert 1 in table.versions  # pinned while the cursor is open
        cursor.close()
        assert 1 not in table.versions  # release triggered the GC pass

    def test_partially_read_stream_still_releases(self):
        db = Database()
        db.execute("CREATE TABLE t (v INT)")
        db.insert_rows("t", [(i,) for i in range(10)])
        cursor = db.stream("SELECT v FROM t")
        assert cursor.fetchone() is not None
        cursor.close()
        assert db.txn.outstanding_snapshots == 0

    def test_context_manager_without_reads_releases(self):
        db = Database()
        db.execute("CREATE TABLE t (v INT)")
        db.execute("INSERT INTO t VALUES (1)")
        with db.stream("SELECT v FROM t"):
            pass
        assert db.txn.outstanding_snapshots == 0
