"""MVCC snapshot isolation, the connection/session layer, and WAL recovery.

Covers the ISSUE 5 acceptance criteria end to end: repeatable snapshot
reads across concurrent connections (heap scans, index probes, ordered
walks, streaming cursors), first-updater- and first-committer-wins
write-write conflicts, statement-level atomicity, transactional WAL
commit records with committed-only replay, the DDL-in-transaction guard,
and garbage collection back to the quiescent fast path.
"""

import pytest

from repro.errors import (
    DatabaseError,
    IntegrityError,
    SerializationError,
    TransactionError,
)
from repro.minidb import Connection, Database, connect

from tests.conftest import crash


@pytest.fixture
def db() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (k INT, v REAL, tag TEXT)")
    db.executemany(
        "INSERT INTO t VALUES (?, ?, ?)",
        [(i, float(i * 10), "tag%d" % (i % 3)) for i in range(10)],
    )
    db.execute("CREATE INDEX idx_k ON t(k)")
    db.execute("CREATE INDEX idx_tag ON t(tag) USING hash")
    return db


class TestConnectionAPI:
    def test_connect_returns_isolated_connection(self, db):
        conn = db.connect()
        assert isinstance(conn, Connection)
        assert not conn.in_transaction
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 10
        conn.close()
        assert conn.closed

    def test_cursor_is_pep249_shaped(self, db):
        with db.connect() as conn:
            cur = conn.cursor()
            cur.execute("SELECT k, v FROM t WHERE k < ?", (2,))
            assert [d[0] for d in cur.description] == ["k", "v"]
            assert cur.fetchone() == (0, 0.0)
            assert cur.fetchall() == [(1, 10.0)]

    def test_commit_rollback_methods(self, db):
        conn = db.connect()
        conn.begin()
        conn.execute("DELETE FROM t WHERE k >= 5")
        conn.rollback()
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 10
        conn.begin()
        conn.execute("DELETE FROM t WHERE k >= 5")
        conn.commit()
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 5
        conn.close()

    def test_commit_without_transaction_is_noop(self, db):
        conn = db.connect()
        conn.commit()  # PEP 249: no error
        conn.rollback()
        conn.close()

    def test_sql_level_stray_commit_still_strict(self, db):
        with db.connect() as conn:
            with pytest.raises(TransactionError):
                conn.execute("COMMIT")

    def test_closed_connection_rejects_statements(self, db):
        conn = db.connect()
        conn.close()
        with pytest.raises(DatabaseError, match="closed"):
            conn.execute("SELECT 1")
        conn.close()  # idempotent

    def test_context_manager_commits_on_clean_exit(self, db):
        with db.connect() as conn:
            conn.execute("BEGIN")
            conn.execute("INSERT INTO t VALUES (99, 990.0, 'x')")
        assert db.execute("SELECT COUNT(*) FROM t WHERE k = 99").scalar() == 1

    def test_context_manager_rolls_back_on_error(self, db):
        with pytest.raises(RuntimeError):
            with db.connect() as conn:
                conn.execute("BEGIN")
                conn.execute("INSERT INTO t VALUES (99, 990.0, 'x')")
                raise RuntimeError("boom")
        assert db.execute("SELECT COUNT(*) FROM t WHERE k = 99").scalar() == 0

    def test_close_rolls_back_open_transaction(self, db):
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("DELETE FROM t")
        conn.close()
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 10

    def test_autocommit_outside_explicit_transaction(self, db):
        a, b = db.connect(), db.connect()
        a.execute("UPDATE t SET v = -1 WHERE k = 0")
        # no COMMIT needed: the other connection sees it immediately
        assert b.execute("SELECT v FROM t WHERE k = 0").scalar() == -1
        a.close()
        b.close()

    def test_prepared_statements_shared_across_connections(self, db):
        a, b = db.connect(), db.connect()
        assert a.prepare("SELECT v FROM t WHERE k = ?") is b.prepare(
            "SELECT v FROM t WHERE k = ?"
        )
        assert a.execute("SELECT v FROM t WHERE k = ?", (3,)).scalar() == 30.0
        assert b.execute("SELECT v FROM t WHERE k = ?", (4,)).scalar() == 40.0
        a.close()
        b.close()


class TestSnapshotIsolation:
    def test_repeatable_reads_across_concurrent_commit(self, db):
        reader, writer = db.connect(), db.connect()
        reader.execute("BEGIN")
        before = reader.execute("SELECT v FROM t WHERE k = 1").scalar()
        writer.execute("UPDATE t SET v = 9999 WHERE k = 1")
        assert reader.execute("SELECT v FROM t WHERE k = 1").scalar() == before
        reader.commit()
        assert reader.execute("SELECT v FROM t WHERE k = 1").scalar() == 9999
        reader.close()
        writer.close()

    def test_no_dirty_reads(self, db):
        reader, writer = db.connect(), db.connect()
        writer.execute("BEGIN")
        writer.execute("UPDATE t SET v = -5 WHERE k = 2")
        writer.execute("INSERT INTO t VALUES (50, 500.0, 'new')")
        assert reader.execute("SELECT v FROM t WHERE k = 2").scalar() == 20.0
        assert reader.execute("SELECT COUNT(*) FROM t").scalar() == 10
        writer.commit()
        assert reader.execute("SELECT v FROM t WHERE k = 2").scalar() == -5
        assert reader.execute("SELECT COUNT(*) FROM t").scalar() == 11
        reader.close()
        writer.close()

    def test_snapshot_covers_deletes(self, db):
        reader, writer = db.connect(), db.connect()
        reader.execute("BEGIN")
        writer.execute("DELETE FROM t WHERE k >= 5")
        assert reader.execute("SELECT COUNT(*) FROM t").scalar() == 10
        assert sorted(
            reader.execute("SELECT k FROM t WHERE k >= 5").scalars()
        ) == [5, 6, 7, 8, 9]
        reader.commit()
        assert reader.execute("SELECT COUNT(*) FROM t").scalar() == 5
        reader.close()
        writer.close()

    def test_index_probes_read_through_snapshot(self, db):
        """EQ probes, hash probes, ranges and ordered walks all resolve
        version chains — a concurrently moved row is still found under
        its old key, and not duplicated under its new one."""
        reader, writer = db.connect(), db.connect()
        reader.execute("BEGIN")
        eq = reader.execute("SELECT v FROM t WHERE k = 3").scalars()
        tag = sorted(reader.execute("SELECT k FROM t WHERE tag = 'tag0'").scalars())
        rng = sorted(reader.execute(
            "SELECT k FROM t WHERE k >= 2 AND k <= 6").scalars())
        ordered = reader.execute("SELECT k FROM t ORDER BY k DESC LIMIT 4").scalars()
        writer.execute("UPDATE t SET k = k + 100, tag = 'moved' WHERE k = 3")
        writer.execute("DELETE FROM t WHERE k = 6")
        assert reader.execute("SELECT v FROM t WHERE k = 3").scalars() == eq
        assert sorted(
            reader.execute("SELECT k FROM t WHERE tag = 'tag0'").scalars()
        ) == tag
        assert sorted(reader.execute(
            "SELECT k FROM t WHERE k >= 2 AND k <= 6").scalars()) == rng
        assert reader.execute(
            "SELECT k FROM t ORDER BY k DESC LIMIT 4").scalars() == ordered
        # and no phantom under the new key
        assert reader.execute("SELECT COUNT(*) FROM t WHERE k = 103").scalar() == 0
        reader.commit()
        assert reader.execute("SELECT COUNT(*) FROM t WHERE k = 103").scalar() == 1
        reader.close()
        writer.close()

    def test_aggregates_read_through_snapshot(self, db):
        reader, writer = db.connect(), db.connect()
        reader.execute("BEGIN")
        total = reader.execute("SELECT SUM(v) FROM t").scalar()
        writer.execute("UPDATE t SET v = v * 10")
        assert reader.execute("SELECT SUM(v) FROM t").scalar() == total
        reader.commit()
        assert reader.execute("SELECT SUM(v) FROM t").scalar() == total * 10
        reader.close()
        writer.close()

    def test_own_writes_visible_inside_transaction(self, db):
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("UPDATE t SET v = 1234 WHERE k = 0")
        assert conn.execute("SELECT v FROM t WHERE k = 0").scalar() == 1234
        conn.execute("DELETE FROM t WHERE k = 1")
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 9
        conn.rollback()
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 10
        assert conn.execute("SELECT v FROM t WHERE k = 0").scalar() == 0.0
        conn.close()


class TestStreamingCursor:
    def test_open_cursor_survives_same_session_dml(self, db):
        """The retired hazard: a streaming SELECT on the plain Database
        surface keeps yielding its snapshot while the same session
        updates and deletes underneath it."""
        cursor = db.stream("SELECT k, v, tag FROM t ORDER BY k")
        first = cursor.fetchone()
        db.execute("UPDATE t SET v = -1, tag = 'gone' WHERE k < 5")
        db.execute("DELETE FROM t WHERE k >= 5")
        rows = [first] + list(cursor)
        assert [row[0] for row in rows] == list(range(10))
        assert all(row[1] == row[0] * 10.0 for row in rows)
        assert all(row[2].startswith("tag") for row in rows)
        # the mutations themselves did land
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 5

    def test_open_cursor_survives_concurrent_commit(self, db):
        reader, writer = db.connect(), db.connect()
        cursor = reader.stream("SELECT k FROM t ORDER BY k")
        assert cursor.fetchone() == (0,)
        writer.execute("DELETE FROM t")
        assert [row[0] for row in cursor] == list(range(1, 10))
        reader.close()
        writer.close()

    def test_indexed_stream_consistent_under_interleaved_update(self, db):
        cursor = db.stream("SELECT k FROM t WHERE k >= 0 ORDER BY k")
        got = [cursor.fetchone()[0], cursor.fetchone()[0]]
        db.execute("UPDATE t SET k = k + 1000")  # moves every index key
        got.extend(row[0] for row in cursor)
        assert got == list(range(10))

    def test_stream_in_transaction_survives_commit(self, db):
        conn = db.connect()
        conn.execute("BEGIN")
        cursor = conn.stream("SELECT k FROM t ORDER BY k")
        assert cursor.fetchone() == (0,)
        conn.commit()
        db.execute("DELETE FROM t")
        assert [row[0] for row in cursor] == list(range(1, 10))
        conn.close()

    def test_closing_cursor_releases_snapshot(self, db):
        cursor = db.stream("SELECT k FROM t")
        assert cursor.fetchone() is not None
        assert db.txn.outstanding_snapshots == 1
        cursor.close()
        assert db.txn.outstanding_snapshots == 0
        db.maybe_gc()
        assert not db.mvcc_engaged()


class TestWriteConflicts:
    def test_first_updater_wins(self, db):
        a, b = db.connect(), db.connect()
        a.execute("BEGIN")
        b.execute("BEGIN")
        a.execute("UPDATE t SET v = 1 WHERE k = 4")
        with pytest.raises(SerializationError):
            b.execute("UPDATE t SET v = 2 WHERE k = 4")
        b.rollback()
        a.commit()
        assert db.execute("SELECT v FROM t WHERE k = 4").scalar() == 1
        a.close()
        b.close()

    def test_first_committer_wins(self, db):
        a, b = db.connect(), db.connect()
        a.execute("BEGIN")
        b.execute("BEGIN")
        b.execute("UPDATE t SET v = 2 WHERE k = 4")
        b.commit()
        with pytest.raises(SerializationError):
            a.execute("UPDATE t SET v = 1 WHERE k = 4")
        a.rollback()
        assert db.execute("SELECT v FROM t WHERE k = 4").scalar() == 2
        a.close()
        b.close()

    def test_update_delete_conflict(self, db):
        a, b = db.connect(), db.connect()
        a.execute("BEGIN")
        b.execute("BEGIN")
        a.execute("DELETE FROM t WHERE k = 7")
        with pytest.raises(SerializationError):
            b.execute("UPDATE t SET v = 0 WHERE k = 7")
        b.rollback()
        a.commit()
        assert db.execute("SELECT COUNT(*) FROM t WHERE k = 7").scalar() == 0
        a.close()
        b.close()

    def test_disjoint_rows_do_not_conflict(self, db):
        a, b = db.connect(), db.connect()
        a.execute("BEGIN")
        b.execute("BEGIN")
        a.execute("UPDATE t SET v = 1 WHERE k = 1")
        b.execute("UPDATE t SET v = 2 WHERE k = 2")
        a.commit()
        b.commit()
        assert db.execute("SELECT v FROM t WHERE k = 1").scalar() == 1
        assert db.execute("SELECT v FROM t WHERE k = 2").scalar() == 2
        a.close()
        b.close()

    def test_failed_statement_unwinds_to_savepoint(self, db):
        """A multi-row UPDATE that conflicts midway must not leave the
        earlier rows modified (statement-level atomicity)."""
        a, b = db.connect(), db.connect()
        a.execute("BEGIN")
        a.execute("UPDATE t SET v = -1 WHERE k = 5")
        a.commit()  # leaves k=5 with a fresh committed version
        a.execute("BEGIN")
        b.execute("BEGIN")
        b.execute("UPDATE t SET v = -2 WHERE k = 5")  # b now owns k=5
        with pytest.raises(SerializationError):
            a.execute("UPDATE t SET v = 0")  # sweeps all rows, hits k=5
        # a's sweep must have unwound entirely
        assert sorted(
            a.execute("SELECT v FROM t WHERE k < 3").scalars()
        ) == [0.0, 10.0, 20.0]
        a.rollback()
        b.rollback()
        a.close()
        b.close()


class TestDDLGuard:
    def test_ddl_forbidden_inside_transaction(self, db):
        db.execute("BEGIN")
        for ddl in (
            "CREATE TABLE nope (x INT)",
            "CREATE INDEX idx_nope ON t(v)",
            "DROP TABLE t",
            "DROP INDEX idx_k",
            "ALTER TABLE t ADD COLUMN extra TEXT",
        ):
            with pytest.raises(TransactionError, match="DDL is not allowed"):
                db.execute(ddl)
        db.execute("ROLLBACK")
        # catalog untouched, DDL works again outside the transaction
        assert db.table_names() == ["t"]
        db.execute("CREATE TABLE yep (x INT)")
        assert db.has_table("yep")

    def test_rolled_back_transaction_leaves_no_phantom_ddl_in_wal(self, logged_db):
        """The regression ISSUE 5 names: a ROLLBACK must not leave the WAL
        claiming a table that never survived."""
        db, wal = logged_db, logged_db.wal
        db.execute("CREATE TABLE real_table (a INT)")
        db.execute("BEGIN")
        with pytest.raises(TransactionError):
            db.execute("CREATE TABLE phantom (b INT)")
        db.execute("ROLLBACK")
        fresh = Database()
        wal.replay_into(fresh)
        assert fresh.table_names() == ["real_table"]

    def test_connection_sessions_guard_ddl_independently(self, db):
        a, b = db.connect(), db.connect()
        a.execute("BEGIN")
        with pytest.raises(TransactionError, match="DDL"):
            a.execute("CREATE TABLE nope (x INT)")
        # b has no open transaction: its DDL is fine
        b.execute("CREATE TABLE fine (x INT)")
        a.rollback()
        assert db.has_table("fine")
        a.close()
        b.close()


class TestWalRecovery:
    def test_commit_record_wraps_transaction_events(self, logged_db):
        db, wal = logged_db, logged_db.wal
        db.execute("CREATE TABLE t (a INT)")
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("INSERT INTO t VALUES (1)")
        conn.execute("INSERT INTO t VALUES (2)")
        conn.execute("UPDATE t SET a = 3 WHERE a = 2")
        conn.commit()
        conn.close()
        ops = [r["op"] for r in wal.records]
        assert ops == ["ddl", "commit"]
        assert [e["op"] for e in wal.records[1]["events"]] == [
            "insert", "insert", "update",
        ]

    def test_replay_reconstructs_only_committed_transactions(self, logged_db):
        db, wal = logged_db, logged_db.wal
        db.execute("CREATE TABLE t (a INT)")
        committed, crashed = db.connect(), db.connect()
        committed.execute("BEGIN")
        committed.execute("INSERT INTO t VALUES (1)")
        committed.commit()
        crashed.execute("BEGIN")
        crashed.execute("INSERT INTO t VALUES (666)")
        # crash: `crashed` never commits, the WAL is replayed as-is
        fresh = Database()
        wal.replay_into(fresh)
        assert fresh.execute("SELECT a FROM t").scalars() == [1]

    def test_rolled_back_transaction_never_reaches_wal(self, logged_db):
        db, wal = logged_db, logged_db.wal
        db.execute("CREATE TABLE t (a INT)")
        conn = db.connect()
        before = len(wal)
        conn.execute("BEGIN")
        conn.execute("INSERT INTO t VALUES (1)")
        conn.rollback()
        conn.close()
        assert len(wal) == before

    def test_checkpoint_roundtrip_with_commit_records(self, tmp_path):
        path = tmp_path / "t.db"
        db = connect(path, wal_autocheckpoint=0)
        db.execute("CREATE TABLE t (a INT)")
        conn = db.connect()

        def commit(*values):
            conn.execute("BEGIN")
            for value in values:
                conn.execute("INSERT INTO t VALUES (?)", (value,))
            conn.commit()

        commit(41, 42)
        db.checkpoint()  # the first transaction moves into the heap
        commit(43, 44)
        conn.close()
        assert [r["op"] for r in db.wal.records] == ["commit"]
        crash(db)  # the second transaction survives only as its commit record
        with connect(path) as reopened:
            assert sorted(reopened.execute("SELECT a FROM t").scalars()) == [
                41, 42, 43, 44]


class TestGarbageCollection:
    def test_versions_collapse_when_quiescent(self, db):
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("UPDATE t SET v = v + 1")
        conn.execute("DELETE FROM t WHERE k > 7")
        conn.commit()
        conn.close()
        db.maybe_gc()
        table = db.table("t")
        assert table.versions == {}
        assert not db.mvcc_engaged()

    def test_gc_respects_open_snapshots(self, db):
        reader, writer = db.connect(), db.connect()
        reader.execute("BEGIN")
        assert reader.execute("SELECT COUNT(*) FROM t").scalar() == 10
        writer.execute("DELETE FROM t WHERE k >= 5")
        writer.close()
        db.vacuum()  # must NOT reclaim: reader still sees the old rows
        assert reader.execute("SELECT COUNT(*) FROM t").scalar() == 10
        reader.commit()
        reader.close()
        db.vacuum()
        assert db.table("t").versions == {}

    def test_gc_removes_stale_index_entries(self, db):
        conn = db.connect()
        conn.execute("UPDATE t SET k = k + 100 WHERE k = 3")
        conn.close()
        db.maybe_gc()
        index = db.table("t").indexes["idx_k"]
        assert index.lookup(3) == set()
        assert len(index.lookup(103)) == 1
        # fast-path probe agrees (no chain left to re-check against)
        assert db.execute("SELECT COUNT(*) FROM t WHERE k = 3").scalar() == 0
        assert db.execute("SELECT COUNT(*) FROM t WHERE k = 103").scalar() == 1

    def test_background_gc_thread(self, db):
        import time

        db.start_background_gc(interval=0.01)
        try:
            conn = db.connect()
            conn.execute("UPDATE t SET v = v + 1")
            conn.close()
            deadline = time.time() + 5.0
            while db.table("t").versions and time.time() < deadline:
                time.sleep(0.01)
            assert db.table("t").versions == {}
        finally:
            db.stop_background_gc()

    def test_rowids_preserved_across_connection_rollback(self, db):
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("DELETE FROM t WHERE k < 5")
        conn.rollback()
        conn.close()
        assert db.execute(
            "SELECT COUNT(*) FROM t WHERE rowid = 1").scalar() == 1
        db.maybe_gc()
        assert db.table("t").versions == {}


class TestMixedSurfaces:
    def test_default_session_and_connection_interleave(self, db):
        """The legacy db.execute surface is just another session."""
        conn = db.connect()
        db.execute("BEGIN")
        db.execute("UPDATE t SET v = -1 WHERE k = 0")
        # conn must not see the default session's uncommitted write
        assert conn.execute("SELECT v FROM t WHERE k = 0").scalar() == 0.0
        db.execute("COMMIT")
        assert conn.execute("SELECT v FROM t WHERE k = 0").scalar() == -1
        conn.close()

    def test_insert_rows_joins_default_transaction(self, db):
        db.execute("BEGIN")
        db.insert_rows("t", [(100, 0.0, "bulk")])
        db.execute("ROLLBACK")
        assert db.execute("SELECT COUNT(*) FROM t WHERE k = 100").scalar() == 0

    def test_reinsert_over_own_delete(self, db):
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("DELETE FROM t WHERE k = 0")
        conn.execute("INSERT INTO t VALUES (0, 111.0, 'again')")
        assert conn.execute("SELECT v FROM t WHERE k = 0").scalar() == 111.0
        conn.rollback()
        assert conn.execute("SELECT v FROM t WHERE k = 0").scalar() == 0.0
        conn.close()

    def test_delete_missing_row_still_integrity_error(self, db):
        conn = db.connect()
        with pytest.raises(IntegrityError):
            db.table("t").delete(12345)
        conn.close()

    def test_unique_index_ignores_dead_version_entries(self, db):
        """DELETE-then-INSERT (and UPDATE-away-then-INSERT) of the same
        unique key must not trip over the dead version's stale entry."""
        db.execute("CREATE TABLE u (name TEXT)")
        db.execute("CREATE UNIQUE INDEX uk ON u(name)")
        db.execute("INSERT INTO u VALUES ('A')")
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("DELETE FROM u WHERE name = 'A'")
        conn.execute("INSERT INTO u VALUES ('A')")  # reclaim own-deleted key
        conn.commit()
        assert db.execute("SELECT COUNT(*) FROM u WHERE name = 'A'").scalar() == 1
        conn.execute("BEGIN")
        conn.execute("UPDATE u SET name = 'B' WHERE name = 'A'")
        conn.execute("INSERT INTO u VALUES ('A')")  # key A was updated away
        conn.commit()
        conn.close()
        assert sorted(db.execute("SELECT name FROM u").scalars()) == ["A", "B"]
        # a *live* duplicate is still refused
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO u VALUES ('B')")

    def test_unique_key_held_by_concurrent_txn_is_a_conflict(self, db):
        db.execute("CREATE TABLE u (name TEXT)")
        db.execute("CREATE UNIQUE INDEX uk ON u(name)")
        db.execute("INSERT INTO u VALUES ('A')")
        a, b = db.connect(), db.connect()
        a.execute("BEGIN")
        a.execute("DELETE FROM u WHERE name = 'A'")  # uncommitted free
        b.execute("BEGIN")
        with pytest.raises(SerializationError):
            b.execute("INSERT INTO u VALUES ('A')")  # a's abort would dup
        b.rollback()
        a.rollback()
        a.close()
        b.close()
        assert db.execute("SELECT COUNT(*) FROM u").scalar() == 1

    def test_planning_error_does_not_leak_snapshot(self, db):
        conn = db.connect()
        stmt = db.prepare("SELECT * FROM doomed")
        db.execute("CREATE TABLE doomed (x INT)")
        db.execute("DROP TABLE doomed")
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            stmt.execute(session=conn._session)
        with pytest.raises(CatalogError):
            stmt.stream(session=conn._session)
        conn.close()
        assert db.txn.outstanding_snapshots == 0
        db.maybe_gc()
        assert not db.mvcc_engaged()

    def test_explain_analyze_under_connection(self, db):
        conn = db.connect()
        text = db.prepare("SELECT COUNT(*) FROM t WHERE k >= 2").explain(
            analyze=True, session=conn._session
        )
        assert "rows=" in text
        conn.close()
