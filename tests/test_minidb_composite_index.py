"""Composite (multi-column) indexes: planning, ordered scans, and
consistency under mutation, rollback (undo), WAL redo, and snapshot
delta replay.

The planner contract under test: ``WHERE cat = ? ORDER BY val [DESC]
LIMIT k`` on a ``(cat, val)`` index is one bounded ``IndexOrderScan``
walk — no TopK, no Sort — and the index answers stay identical to an
unindexed twin database through any sequence of writes.
"""

from __future__ import annotations

import pytest

from repro.backends.sql_backend import SQLBackend
from repro.frame import DataFrame
from repro.minidb import Database

ROWS = [
    ("a", 3.0, 1),
    ("a", 1.0, 2),
    ("b", 2.0, 3),
    ("a", None, 4),   # NULL in the order column
    (None, 9.0, 5),   # NULL in the equality column
    ("a", "12k", 6),  # text contamination in a REAL column
    ("b", 2.0, 7),    # duplicate composite key
    ("c", -4.0, 8),
]


def _twin_dbs():
    """An indexed database and an identical unindexed one."""
    indexed, plain = Database(), Database()
    for db in (indexed, plain):
        db.execute("CREATE TABLE t (cat TEXT, val REAL, x INT)")
        db.executemany("INSERT INTO t VALUES (?, ?, ?)", ROWS)
    indexed.execute("CREATE INDEX idx_cv ON t (cat, val)")
    return indexed, plain


# (sql, params, positions of the ORDER BY key columns in the output row);
# key columns must match in sequence, full rows as multisets — rows tied on
# every key may legally come back in any order
PROBES = [
    ("SELECT val, x FROM t WHERE cat = ? ORDER BY val LIMIT 3", ("a",), (0,)),
    ("SELECT val, x FROM t WHERE cat = ? ORDER BY val DESC LIMIT 3", ("a",), (0,)),
    ("SELECT val, x FROM t WHERE cat = ? ORDER BY val DESC", ("b",), (0,)),
    ("SELECT val, x FROM t WHERE cat = ? AND val = ?", ("b", 2), ()),
    ("SELECT val, x FROM t WHERE cat = ?", ("a",), ()),
    ("SELECT cat, val, x FROM t ORDER BY cat, val", (), (0, 1)),
    ("SELECT cat, val, x FROM t ORDER BY cat DESC, val DESC", (), (0, 1)),
]


def _assert_equivalent(indexed: Database, plain: Database) -> None:
    """Every probe answers identically through the index and without it."""
    for sql, params, key_positions in PROBES:
        fast = indexed.execute(sql, params).rows
        slow = plain.execute(sql, params).rows
        keys = lambda rows: [[row[p] for p in key_positions] for row in rows]
        assert keys(fast) == keys(slow), f"{sql} key order diverged"
        if "LIMIT" not in sql:  # ties at a LIMIT cut may differ legally
            assert sorted(map(repr, fast)) == sorted(map(repr, slow)), sql
    # structural: the composite tree still covers every row
    table = indexed.table("t")
    for index in table.indexes.values():
        assert index.covers(table.n_rows)
        index._tree.check_invariants()


class TestCompositePlans:
    def test_eq_prefix_desc_is_one_index_walk(self):
        indexed, _ = _twin_dbs()
        plan = indexed.explain(
            "SELECT x FROM t WHERE cat = ? ORDER BY val DESC LIMIT 10"
        )
        assert "IndexOrderScan" in plan and "DESC" in plan
        assert "TopK" not in plan and "Sort" not in plan and "SeqScan" not in plan

    def test_eq_prefix_asc(self):
        indexed, _ = _twin_dbs()
        plan = indexed.explain("SELECT x FROM t WHERE cat = ? ORDER BY val LIMIT 5")
        assert "IndexOrderScan" in plan and "eq_prefix=1" in plan
        assert "DESC" not in plan

    def test_full_equality_uses_composite(self):
        indexed, _ = _twin_dbs()
        plan = indexed.explain("SELECT x FROM t WHERE cat = ? AND val = ?")
        assert "IndexEqScan" in plan and "2 cols" in plan

    def test_full_walk_matches_multi_key_order(self):
        indexed, _ = _twin_dbs()
        plan = indexed.explain("SELECT x FROM t ORDER BY cat, val LIMIT 4")
        assert "IndexOrderScan" in plan and "Sort" not in plan and "TopK" not in plan
        plan = indexed.explain("SELECT x FROM t ORDER BY cat DESC, val DESC LIMIT 4")
        assert "IndexOrderScan" in plan and "DESC" in plan

    def test_mixed_directions_fall_back(self):
        indexed, _ = _twin_dbs()
        plan = indexed.explain("SELECT x FROM t ORDER BY cat, val DESC LIMIT 4")
        assert "IndexOrderScan" not in plan and "TopK" in plan

    def test_prefix_without_order_still_bounds_the_scan(self):
        indexed, _ = _twin_dbs()
        plan = indexed.explain("SELECT x FROM t WHERE cat = ?")
        assert "IndexOrderScan" in plan and "SeqScan" not in plan

    def test_order_by_pinned_column_needs_no_sort(self):
        indexed, _ = _twin_dbs()
        plan = indexed.explain("SELECT x FROM t WHERE cat = ? ORDER BY cat")
        assert "Sort" not in plan and "TopK" not in plan

    def test_null_probe_returns_nothing(self):
        indexed, plain = _twin_dbs()
        for db in (indexed, plain):
            assert db.execute(
                "SELECT x FROM t WHERE cat = ? ORDER BY val DESC LIMIT 3", (None,)
            ).rows == []

    def test_results_match_unindexed_twin(self):
        _assert_equivalent(*_twin_dbs())


class TestMaintenanceUnderMutation:
    def test_update_of_suffix_column(self):
        indexed, plain = _twin_dbs()
        for db in (indexed, plain):
            db.execute("UPDATE t SET val = ? WHERE x = ?", (100.0, 2))
            db.execute("UPDATE t SET val = NULL WHERE x = ?", (1,))
        _assert_equivalent(indexed, plain)

    def test_update_of_prefix_column(self):
        indexed, plain = _twin_dbs()
        for db in (indexed, plain):
            db.execute("UPDATE t SET cat = ? WHERE cat = ?", ("z", "a"))
            db.execute("UPDATE t SET cat = NULL WHERE x = ?", (3,))
        _assert_equivalent(indexed, plain)

    def test_update_of_unindexed_column_leaves_keys_alone(self):
        indexed, plain = _twin_dbs()
        for db in (indexed, plain):
            db.execute("UPDATE t SET x = x + 100 WHERE cat = ?", ("b",))
        _assert_equivalent(indexed, plain)

    def test_delete_and_reinsert(self):
        indexed, plain = _twin_dbs()
        for db in (indexed, plain):
            db.execute("DELETE FROM t WHERE cat = ?", ("a",))
            db.execute("INSERT INTO t VALUES ('a', 0.5, 50), ('a', NULL, 51)")
        _assert_equivalent(indexed, plain)

    def test_churn_keeps_null_tracking_consistent(self):
        indexed, plain = _twin_dbs()
        for db in (indexed, plain):
            db.execute("UPDATE t SET val = NULL WHERE cat = ?", ("b",))
            db.execute("UPDATE t SET val = 7 WHERE val IS NULL")
            db.execute("DELETE FROM t WHERE val = 7")
        _assert_equivalent(indexed, plain)
        index = indexed.table("t").indexes["idx_cv"]
        expected_nulls = {
            rowid for rowid, row in indexed.table("t").scan()
            if row[0] is None or row[1] is None
        }
        assert index.null_rowids == expected_nulls


def _probe_fingerprint(db: Database) -> dict:
    """Order-of-ties-insensitive answers to every probe."""
    out = {}
    for sql, params, key_positions in PROBES:
        rows = db.execute(sql, params).rows
        out[sql] = (
            [[row[p] for p in key_positions] for row in rows],
            sorted(map(repr, rows)),
        )
    return out


class TestUndoRedoReplay:
    def test_rollback_restores_index_answers(self):
        indexed, plain = _twin_dbs()
        before = _probe_fingerprint(indexed)
        indexed.execute("BEGIN")
        indexed.execute("UPDATE t SET val = val + 1 WHERE cat = ? AND val < ?",
                        ("a", 100))
        indexed.execute("DELETE FROM t WHERE cat = ?", ("b",))
        indexed.execute("INSERT INTO t VALUES ('q', 1.0, 99)")
        indexed.execute("ROLLBACK")
        assert _probe_fingerprint(indexed) == before
        _assert_equivalent(indexed, plain)

    def test_wal_redo_rebuilds_composite_indexes(self, logged_db):
        source, wal = logged_db, logged_db.wal
        source.execute("CREATE TABLE t (cat TEXT, val REAL, x INT)")
        source.execute("CREATE INDEX idx_cv ON t (cat, val)")
        source.executemany("INSERT INTO t VALUES (?, ?, ?)", ROWS)
        source.execute("UPDATE t SET val = ? WHERE x = ?", (42.0, 3))
        source.execute("DELETE FROM t WHERE x = ?", (8,))

        replica = Database()
        wal.replay_into(replica)
        assert _probe_fingerprint(replica) == _probe_fingerprint(source)
        index = replica.table("t").indexes["idx_cv"]
        assert index.columns == ("cat", "val")
        assert index.covers(replica.table("t").n_rows)

    def test_delta_undo_redo_on_composite_indexed_table(self):
        frame = DataFrame.from_rows(
            [list(r) for r in ROWS], ["cat", "val", "x"]
        )
        backend = SQLBackend.from_frame(frame)
        backend.db.execute("CREATE INDEX idx_cv ON data (cat, val)")
        table = backend.db.table("data")

        def snapshot():
            return backend.db.execute(
                "SELECT cat, val, x FROM data ORDER BY cat, val, x"
            ).rows

        def assert_index_consistent():
            index = table.indexes["idx_cv"]
            assert index.covers(table.n_rows)
            index._tree.check_invariants()
            expected = {
                rowid for rowid, row in table.scan()
                if row[index.positions[0]] is None
                or row[index.positions[1]] is None
            }
            assert index.null_rowids == expected

        initial = snapshot()
        delta_set = backend.set_cells("val", list(table.rows), value=5.5)
        delta_del = backend.delete_rows([1, 3])
        mutated = snapshot()
        assert mutated != initial
        assert_index_consistent()

        # undo newest-first: replay each delta's inverse
        backend.apply_delta(delta_del.inverse())
        backend.apply_delta(delta_set.inverse())
        assert snapshot() == initial
        assert_index_consistent()

        # redo oldest-first: replay the deltas forward again
        backend.apply_delta(delta_set)
        backend.apply_delta(delta_del)
        assert snapshot() == mutated
        assert_index_consistent()


@pytest.mark.parametrize("kind", ["btree"])
def test_composite_unique_enforced_through_sql(kind):
    db = Database()
    db.execute("CREATE TABLE t (a TEXT, b INT)")
    db.execute(f"CREATE UNIQUE INDEX u ON t (a, b) USING {kind}")
    db.execute("INSERT INTO t VALUES ('x', 1)")
    db.execute("INSERT INTO t VALUES ('x', 2)")  # differs in b: fine
    db.execute("INSERT INTO t VALUES ('x', NULL)")
    db.execute("INSERT INTO t VALUES ('x', NULL)")  # NULLs never collide
    from repro.errors import IntegrityError

    with pytest.raises(IntegrityError):
        db.execute("INSERT INTO t VALUES ('x', 1)")
