"""Tests for the streaming SELECT pipeline: short-circuiting limits,
top-k ordering, index-ordered scans, and the streaming cursor API."""

import pytest

from repro.errors import DatabaseError, ExecutionError, IntegrityError
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


class TestGroupByUnhashable:
    """No keyed path meets an unhashable cell: a list or dict is refused at
    insert.  GROUP BY and COUNT(DISTINCT) key the JSON-looking text that
    may stand in its place by plain value, as DISTINCT does, in row and
    batch mode."""

    CELLS = [1, "[2]", "a", "[2]", None, 1.0, '{"k": 1}']

    @pytest.fixture(params=["off", "on"])
    def db(self, request) -> Database:
        db = Database(vectorize=request.param)
        db.execute("CREATE TABLE t (c BLOB, d INT)")
        db.insert_rows("t", [(cell, i % 2) for i, cell in enumerate(self.CELLS)])
        for cell in ([2], {"k": 1}):
            with pytest.raises(IntegrityError):
                db.insert_rows("t", [(cell, 0)])
        return db

    def test_group_keys_are_the_distinct_rows(self, db):
        distinct = db.execute("SELECT DISTINCT c FROM t").scalars()
        assert len(distinct) == 5
        groups = db.execute("SELECT c, COUNT(*) FROM t GROUP BY c").rows
        assert [key for key, _n in groups] == distinct
        assert [n for _key, n in groups] == [2, 2, 1, 1, 1]

    def test_count_distinct_counts_the_non_null_distinct_rows(self, db):
        distinct = db.execute("SELECT DISTINCT c FROM t").scalars()
        count = db.execute("SELECT COUNT(DISTINCT c) FROM t").scalar()
        assert count == len([v for v in distinct if v is not None]) == 4
        per_d = db.execute(
            "SELECT d, COUNT(DISTINCT c) FROM t GROUP BY d ORDER BY d").rows
        assert per_d == [(0, 3), (1, 2)]

    def test_two_column_keys(self, db):
        pairs = db.execute("SELECT DISTINCT c, d FROM t").rows
        groups = db.execute("SELECT c, d, COUNT(*) FROM t GROUP BY c, d").rows
        assert [(c, d) for c, d, _n in groups] == pairs
        assert sum(n for _c, _d, n in groups) == len(self.CELLS)


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
