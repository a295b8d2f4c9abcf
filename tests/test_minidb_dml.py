"""Tests for INSERT/UPDATE/DELETE, transactions, WAL, and the planner."""

import pytest

from repro.errors import (
    CatalogError,
    ExecutionError,
    SQLSyntaxError,
    TransactionError,
)
from repro.minidb import Database
from repro.minidb.planner import INDEX_EQ, INDEX_IN, INDEX_RANGE, SEQ, plan_scan
from repro.minidb.parser import parse


class TestInsert:
    def test_rowcount_and_lastrowid(self, dirty_db):
        result = dirty_db.execute(
            "INSERT INTO salary VALUES ('X', 'BS', 1.0, 20), ('Y', 'MS', 2.0, 21)"
        )
        assert result.rowcount == 2
        assert result.lastrowid == 11

    def test_partial_columns_default_null(self, dirty_db):
        dirty_db.execute("INSERT INTO salary (country) VALUES ('Z')")
        row = dirty_db.execute(
            "SELECT degree, income, age FROM salary WHERE country = 'Z'").first()
        assert row == (None, None, None)

    def test_arity_mismatch(self, dirty_db):
        with pytest.raises(ExecutionError, match="values for"):
            dirty_db.execute("INSERT INTO salary (country, age) VALUES (1)")

    def test_insert_updates_indexes(self, dirty_db):
        dirty_db.execute(
            "INSERT INTO salary VALUES ('Bhutan', 'BS', 1.0, 20)")
        n = dirty_db.execute(
            "SELECT COUNT(*) FROM salary WHERE country = 'Bhutan'").scalar()
        assert n == 5


class TestUpdate:
    def test_update_with_where(self, dirty_db):
        result = dirty_db.execute(
            "UPDATE salary SET income = 12000 WHERE typeof(income) = 'text'")
        assert result.rowcount == 1
        assert dirty_db.execute(
            "SELECT COUNT(*) FROM salary WHERE typeof(income) = 'text'"
        ).scalar() == 0

    def test_update_expression_references_row(self, dirty_db):
        dirty_db.execute("UPDATE salary SET age = age + 1 WHERE country = 'Nauru'")
        assert dirty_db.execute(
            "SELECT age FROM salary WHERE country = 'Nauru'").scalar() == 28

    def test_update_keeps_indexes_consistent(self, dirty_db):
        dirty_db.execute(
            "UPDATE salary SET country = 'Lesotho' WHERE country = 'Nauru'")
        assert dirty_db.execute(
            "SELECT COUNT(*) FROM salary WHERE country = 'Lesotho'").scalar() == 5
        assert dirty_db.execute(
            "SELECT COUNT(*) FROM salary WHERE country = 'Nauru'").scalar() == 0

    def test_update_all_rows(self, dirty_db):
        result = dirty_db.execute("UPDATE salary SET age = 0")
        assert result.rowcount == 9


class TestDelete:
    def test_delete_with_indexed_predicate(self, dirty_db):
        result = dirty_db.execute("DELETE FROM salary WHERE country = 'Bhutan'")
        assert result.rowcount == 4
        assert dirty_db.execute("SELECT COUNT(*) FROM salary").scalar() == 5

    def test_delete_all(self, dirty_db):
        dirty_db.execute("DELETE FROM salary")
        assert dirty_db.execute("SELECT COUNT(*) FROM salary").scalar() == 0

    def test_delete_null_predicate(self, dirty_db):
        result = dirty_db.execute("DELETE FROM salary WHERE income IS NULL")
        assert result.rowcount == 1


class TestTransactions:
    def test_rollback_restores_deletes(self, dirty_db):
        dirty_db.execute("BEGIN")
        dirty_db.execute("DELETE FROM salary WHERE country = 'Bhutan'")
        dirty_db.execute("ROLLBACK")
        assert dirty_db.execute("SELECT COUNT(*) FROM salary").scalar() == 9
        # rowids preserved
        assert dirty_db.execute(
            "SELECT COUNT(*) FROM salary WHERE rowid = 1").scalar() == 1

    def test_rollback_restores_updates_and_indexes(self, dirty_db):
        dirty_db.execute("BEGIN")
        dirty_db.execute("UPDATE salary SET country = 'X' WHERE country = 'Bhutan'")
        dirty_db.execute("ROLLBACK")
        assert dirty_db.execute(
            "SELECT COUNT(*) FROM salary WHERE country = 'Bhutan'").scalar() == 4

    def test_rollback_removes_inserts(self, dirty_db):
        dirty_db.execute("BEGIN")
        dirty_db.execute("INSERT INTO salary VALUES ('X', 'BS', 1.0, 1)")
        dirty_db.execute("ROLLBACK")
        assert dirty_db.execute("SELECT COUNT(*) FROM salary").scalar() == 9

    def test_commit_keeps_changes(self, dirty_db):
        dirty_db.execute("BEGIN")
        dirty_db.execute("DELETE FROM salary WHERE country = 'Nauru'")
        dirty_db.execute("COMMIT")
        assert dirty_db.execute("SELECT COUNT(*) FROM salary").scalar() == 8

    def test_nested_begin_rejected(self, dirty_db):
        dirty_db.execute("BEGIN")
        with pytest.raises(TransactionError):
            dirty_db.execute("BEGIN")

    def test_stray_commit_rejected(self, dirty_db):
        with pytest.raises(TransactionError):
            dirty_db.execute("COMMIT")

    def test_stray_rollback_rejected(self, dirty_db):
        with pytest.raises(TransactionError):
            dirty_db.execute("ROLLBACK")


class TestWal:
    def test_committed_changes_logged(self, logged_db):
        db = logged_db
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("UPDATE t SET a = 2")
        db.execute("DELETE FROM t")
        ops = [r["op"] for r in db.wal.records]
        assert ops == ["ddl", "insert", "update", "delete"]

    def test_transaction_buffered_until_commit(self, logged_db):
        db = logged_db
        db.execute("CREATE TABLE t (a INT)")
        before = len(db.wal)
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (1)")
        assert len(db.wal) == before
        db.execute("COMMIT")
        assert len(db.wal) == before + 1

    def test_rolled_back_changes_never_logged(self, logged_db):
        db = logged_db
        db.execute("CREATE TABLE t (a INT)")
        before = len(db.wal)
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("ROLLBACK")
        assert len(db.wal) == before

    def test_replay_reconstructs_database(self, logged_db):
        db, wal = logged_db, logged_db.wal
        db.execute("CREATE TABLE t (a INT, b TEXT)")
        db.executemany("INSERT INTO t VALUES (?, ?)", [(1, "x"), (2, "y")])
        db.execute("UPDATE t SET b = 'z' WHERE a = 1")
        db.execute("DELETE FROM t WHERE a = 2")

        fresh = Database()
        wal.replay_into(fresh)
        assert fresh.execute("SELECT a, b FROM t").rows == [(1, "z")]

    def test_replay_honors_drop_table(self, logged_db):
        """DROP TABLE is WAL-logged, so replay never resurrects it."""
        db, wal = logged_db, logged_db.wal
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("DROP TABLE t")

        fresh = Database()
        wal.replay_into(fresh)
        assert fresh.table_names() == []

    def test_replay_honors_drop_index(self, logged_db):
        db, wal = logged_db, logged_db.wal
        db.execute("CREATE TABLE t (a INT)")
        db.execute("CREATE INDEX idx_a ON t (a)")
        db.execute("DROP INDEX idx_a")

        fresh = Database()
        wal.replay_into(fresh)
        assert fresh.index_names() == []

    def test_checkpoint_truncates_and_counts(self, logged_db):
        db, wal = logged_db, logged_db.wal
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        flushed = db.checkpoint()
        assert flushed == 2
        assert len(wal) == 0
        assert wal.path.stat().st_size == 0

    def test_size_bytes_positive(self, logged_db):
        db, wal = logged_db, logged_db.wal
        db.execute("CREATE TABLE t (a INT)")
        assert wal.size_bytes() > 0


class TestPlanner:
    def test_equality_uses_index(self, dirty_db):
        table = dirty_db.table("salary")
        stmt = parse("SELECT * FROM salary WHERE country = 'Bhutan'")
        plan = plan_scan(table, stmt.where)
        assert plan.kind == INDEX_EQ
        assert plan.index_name == "idx_salary_country"
        assert plan.residual is None

    def test_range_on_btree(self, dirty_db):
        table = dirty_db.table("salary")
        stmt = parse("SELECT * FROM salary WHERE income >= 100 AND income < 5000")
        plan = plan_scan(table, stmt.where)
        assert plan.kind == INDEX_RANGE
        assert plan.include_low and not plan.include_high
        assert plan.residual is None

    def test_in_list_uses_index(self, dirty_db):
        table = dirty_db.table("salary")
        stmt = parse("SELECT * FROM salary WHERE country IN ('Bhutan', 'Nauru')")
        plan = plan_scan(table, stmt.where)
        assert plan.kind == INDEX_IN

    def test_residual_kept(self, dirty_db):
        table = dirty_db.table("salary")
        stmt = parse("SELECT * FROM salary WHERE country = 'Bhutan' AND age > 30")
        plan = plan_scan(table, stmt.where)
        assert plan.kind == INDEX_EQ
        assert plan.residual is not None

    def test_unindexed_column_seq_scans(self, dirty_db):
        table = dirty_db.table("salary")
        stmt = parse("SELECT * FROM salary WHERE age = 34")
        plan = plan_scan(table, stmt.where)
        assert plan.kind == SEQ

    def test_flipped_comparison(self, dirty_db):
        table = dirty_db.table("salary")
        stmt = parse("SELECT * FROM salary WHERE 'Bhutan' = country")
        plan = plan_scan(table, stmt.where)
        assert plan.kind == INDEX_EQ

    def test_or_prevents_index_use(self, dirty_db):
        table = dirty_db.table("salary")
        stmt = parse("SELECT * FROM salary WHERE country = 'B' OR age = 1")
        plan = plan_scan(table, stmt.where)
        assert plan.kind == SEQ


class TestDDLAndCatalog:
    def test_create_table_twice_rejected(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (a INT)")
        db.execute("CREATE TABLE IF NOT EXISTS t (a INT)")  # no error

    def test_drop_table(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        db.execute("CREATE INDEX i ON t (a)")
        db.execute("DROP TABLE t")
        assert not db.has_table("t")
        assert db.index_names() == []
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE t")
        db.execute("DROP TABLE IF EXISTS t")

    def test_drop_index(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        db.execute("CREATE INDEX i ON t (a)")
        db.execute("DROP INDEX i")
        assert db.index_names() == []
        db.execute("DROP INDEX IF EXISTS i")

    def test_multi_column_index_created(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT, b INT)")
        db.execute("INSERT INTO t VALUES (1, 2), (1, 3)")
        db.execute("CREATE INDEX i ON t (a, b)")
        assert db.index_catalog["i"].columns == ("a", "b")
        assert db.execute(
            "SELECT b FROM t WHERE a = 1 AND b = 3"
        ).scalars() == [3]

    def test_index_on_missing_column_names_it(self):
        """A typo'd column fails in the catalog, not inside the B+tree."""
        db = Database()
        db.execute("CREATE TABLE t (a INT, b INT)")
        db.execute("INSERT INTO t VALUES (1, 2)")
        with pytest.raises(CatalogError, match=r"no column 'zz'.*has: a, b"):
            db.execute("CREATE INDEX i ON t (a, zz)")
        assert db.index_names() == []  # nothing half-created

    def test_index_duplicate_column_rejected(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        with pytest.raises(CatalogError, match="twice"):
            db.execute("CREATE INDEX i ON t (a, a)")

    def test_alter_add_column(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("ALTER TABLE t ADD COLUMN b TEXT")
        assert db.execute("SELECT b FROM t").scalar() is None

    def test_unknown_table_message(self):
        db = Database()
        with pytest.raises(CatalogError, match="no table"):
            db.execute("SELECT * FROM nope")

    def test_executemany_rowcount(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        total = db.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(5)])
        assert total == 5

    def test_statement_cache_reused(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (?)", (1,))
        cached = db.plan_cache.get("INSERT INTO t VALUES (?)")
        db.execute("INSERT INTO t VALUES (?)", (2,))
        assert db.plan_cache.get("INSERT INTO t VALUES (?)") is cached

    def test_result_to_frame(self, dirty_db):
        frame = dirty_db.execute(
            "SELECT country, age FROM salary ORDER BY rowid").to_frame()
        assert frame.n_rows == 9
        assert frame["age"].to_list()[0] == 34
