"""Durability and lifecycle tests: the connect/close API, reopen-recovers
semantics, checkpoint-bounded WAL replay, crash recovery (including
randomized crash points and torn checkpoints), and buffer-pool residency
on larger-than-pool datasets."""

import json
import random

import pytest

from repro.errors import CatalogError, DatabaseError, SQLSyntaxError
from repro.minidb import Database, connect
from repro.minidb.catalog import TableSchema
from repro.minidb.pager import PAGE_SIZE

from tests.conftest import crash, wal_path


class TestLifecycleAPI:
    def test_connect_memory_modes(self):
        for db in (connect(), connect(":memory:")):
            assert db.path is None and db.pager is None
            db.execute("CREATE TABLE t (x INT)")
            db.close()

    def test_connect_file_and_positional_path(self, tmp_path):
        path = tmp_path / "pos.db"
        db = Database(path)  # positional str/PathLike means a file path
        assert db.path == path and db.pager is not None
        db.close()
        connect(path).close()

    def test_context_manager_closes(self, tmp_path):
        with connect(tmp_path / "cm.db") as db:
            db.execute("CREATE TABLE t (x INT)")
            assert not db.closed
        assert db.closed

    def test_close_is_idempotent_and_fences_use(self, tmp_path):
        db = connect(tmp_path / "fence.db")
        db.execute("CREATE TABLE t (x INT)")
        conn = db.connect()
        db.close()
        db.close()  # second close is a no-op
        with pytest.raises(DatabaseError, match="closed"):
            db.execute("SELECT 1")
        with pytest.raises(DatabaseError, match="closed"):
            db.connect()
        with pytest.raises(DatabaseError, match="closed"):
            conn.execute("SELECT 1")

    def test_unknown_option_rejected(self, tmp_path):
        with pytest.raises(DatabaseError, match="unknown open option"):
            connect(tmp_path / "o.db", page_cache=9)

    def test_pragma_surface(self, tmp_path):
        db = connect(tmp_path / "prag.db", pool_pages=32)
        assert db.pragma("page_size") == PAGE_SIZE
        assert db.pragma("pool_pages") == 32
        db.pragma("pool_pages", 64)
        assert db.pragma("pool_pages") == 64
        assert db.pragma("fsync") == "commit"
        db.pragma("fsync", "off")
        assert db.pragma("fsync") == "off"
        assert db.pragma("wal_autocheckpoint") == 1000
        db.pragma("wal_autocheckpoint", 10)
        assert db.pragma("wal_autocheckpoint") == 10
        stats = db.pragma("buffer_pool_stats")
        assert set(stats) >= {"hits", "misses", "evictions"}
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES (1)")
        assert db.pragma("checkpoint") >= 0
        db.pragma("vacuum")
        with pytest.raises(DatabaseError, match="unknown pragma"):
            db.pragma("nope")
        db.close()

        mem = connect()
        assert mem.pragma("page_size") is None
        mem.close()


class TestReopenRecovers:
    def test_full_round_trip(self, tmp_path):
        path = tmp_path / "rt.db"
        with connect(path) as db:
            db.execute("CREATE TABLE people (name TEXT, age INT)")
            db.execute("CREATE INDEX idx_age ON people(age)")
            db.executemany("INSERT INTO people VALUES (?, ?)",
                           [(f"p{i}", 20 + i % 50) for i in range(200)])
            db.execute("UPDATE people SET age = 99 WHERE name = 'p7'")
            db.execute("DELETE FROM people WHERE name = 'p8'")
        # clean close checkpoints: the WAL tail is empty on disk
        assert wal_path(path).stat().st_size == 0

        with connect(path) as db:
            assert db.execute("SELECT COUNT(*) FROM people").scalar() == 199
            assert db.execute(
                "SELECT age FROM people WHERE name = 'p7'").scalar() == 99
            assert db.execute(
                "SELECT COUNT(*) FROM people WHERE name = 'p8'").scalar() == 0
            # the secondary index was rebuilt and still answers probes
            assert "idx_age" in db.index_catalog
            assert db.execute(
                "SELECT COUNT(*) FROM people WHERE age = 99").scalar() == 1
            # fresh inserts must not collide with recovered rowids
            db.execute("INSERT INTO people VALUES ('new', 1)")
            assert db.execute("SELECT COUNT(*) FROM people").scalar() == 200

    def test_schema_changes_survive(self, tmp_path):
        path = tmp_path / "schema.db"
        with connect(path) as db:
            db.execute("CREATE TABLE a (x INT)")
            db.execute("CREATE TABLE b (y TEXT)")
            db.execute("INSERT INTO a VALUES (1)")
            db.execute("ALTER TABLE a ADD COLUMN note TEXT")
            db.execute("UPDATE a SET note = 'kept'")
            db.execute("DROP TABLE b")
        with connect(path) as db:
            assert db.has_table("a") and not db.has_table("b")
            assert db.execute("SELECT x, note FROM a").rows == [(1, "kept")]

    def test_boolean_column_round_trip(self, tmp_path):
        """A boolean column keeps integer affinity and 0/1 cells, both from
        checkpointed pages and from a WAL tail replayed after a crash."""
        path = tmp_path / "bool.db"
        with connect(path) as db:
            db.execute("CREATE TABLE t (flag BOOLEAN)")
            db.executemany("INSERT INTO t VALUES (?)", [(True,), (False,), (None,)])
        db = connect(path)
        db.execute("INSERT INTO t VALUES (?)", (True,))
        crash(db)
        with connect(path) as db:
            assert db.table("t").schema.columns[0].affinity == "integer"
            flags = db.execute("SELECT flag FROM t ORDER BY rowid").scalars()
            assert flags == [1, 0, None, 1]
            assert [type(v) for v in flags] == [int, int, type(None), int]

    def test_partitioned_table_is_refused_by_name(self, tmp_path, monkeypatch):
        """Older files may hold a partitioned table (a ``partition`` schema
        key and per-partition ``first_pages``); opening one names the
        table instead of failing on the missing ``first_page``."""
        message = ("table 'm' is partitioned; partitioned tables are no "
                   "longer supported")
        legacy = {"name": "m", "columns": [["id", "INTEGER"]],
                  "partition": {"kind": "hash", "column": "id", "count": 2}}
        with pytest.raises(CatalogError, match=message):
            TableSchema.from_dict(legacy)

        path = tmp_path / "legacy.db"
        db = connect(path)
        db.execute("CREATE TABLE m (id INTEGER)")
        serialize = db._serialize_catalog

        def legacy_catalog():
            catalog = serialize()
            entry = catalog["tables"][0]
            entry["schema"]["partition"] = legacy["partition"]
            entry["first_pages"] = [entry.pop("first_page")] * 2
            return catalog

        monkeypatch.setattr(db, "_serialize_catalog", legacy_catalog)
        db.close()
        with pytest.raises(CatalogError, match=message):
            connect(path)

    @staticmethod
    def _crash_with_ddl_tail(path, sql):
        """A file that crashed before its first checkpoint, whose WAL tail
        holds ``sql`` as a DDL record followed by an insert into ``m``."""
        db = connect(path, wal_autocheckpoint=0)
        db.execute("CREATE TABLE t (i INT)")
        db.execute("INSERT INTO t VALUES (1)")
        crash(db)
        lines = wal_path(path).read_bytes().splitlines()
        lsn = max(json.loads(line)["lsn"] for line in lines)
        tail = [{"op": "ddl", "sql": sql, "lsn": lsn + 1},
                {"op": "insert", "table": "m", "rowid": 1, "values": [7],
                 "lsn": lsn + 2}]
        with open(wal_path(path), "ab") as fh:
            for record in tail:
                fh.write(json.dumps(record).encode() + b"\n")
        return lsn + 1

    def test_partitioned_ddl_in_wal_tail_is_refused_by_name(self, tmp_path):
        """Tolerant replay skips only re-run DDL; a logged partitioned
        ``CREATE TABLE`` names the table instead of vanishing and leaving
        the insert after it to fail with "no table"."""
        path = tmp_path / "wal_partitioned.db"
        self._crash_with_ddl_tail(
            path, "CREATE TABLE m (id INTEGER) PARTITION BY HASH (id) PARTITIONS 4")
        with pytest.raises(CatalogError, match=(
                "table 'm' is partitioned; partitioned tables are no "
                "longer supported")):
            connect(path)

    def test_unparseable_ddl_in_wal_tail_names_its_lsn(self, tmp_path):
        path = tmp_path / "wal_garbage.db"
        lsn = self._crash_with_ddl_tail(path, "CREATE TABEL m (id INTEGER)")
        with pytest.raises(SQLSyntaxError, match=f"lsn {lsn}"):
            connect(path)

    def test_rerun_ddl_in_wal_tail_is_still_skipped(self, tmp_path):
        path = tmp_path / "wal_rerun.db"
        self._crash_with_ddl_tail(path, "CREATE TABLE t (i INT)")
        with pytest.raises(CatalogError, match="no table 'm'"):
            connect(path)  # the re-run CREATE was skipped; 'm' never existed

    def test_reopen_replays_only_the_tail(self, tmp_path):
        """After a checkpoint, only post-checkpoint commits live in the WAL
        file; recovery replays that tail over the heap pages."""
        path = tmp_path / "tail.db"
        db = connect(path, wal_autocheckpoint=0)
        db.execute("CREATE TABLE t (i INT)")
        db.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(100)])
        db.checkpoint()
        assert wal_path(path).stat().st_size == 0
        db.execute("INSERT INTO t VALUES (100)")
        db.execute("INSERT INTO t VALUES (101)")
        tail = wal_path(path).read_bytes().splitlines()
        assert len(tail) == 2  # just the two post-checkpoint commits
        crash(db)

        with connect(path) as db2:
            assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 102
            assert db2.execute("SELECT MAX(i) FROM t").scalar() == 101

    def test_fsync_off_still_recovers_after_clean_close(self, tmp_path):
        path = tmp_path / "nofsync.db"
        with connect(path, fsync=False) as db:
            db.execute("CREATE TABLE t (x INT)")
            db.execute("INSERT INTO t VALUES (42)")
        with connect(path) as db:
            assert db.execute("SELECT x FROM t").scalar() == 42


class TestCrashRecovery:
    def test_committed_survive_uncommitted_do_not(self, tmp_path):
        path = tmp_path / "crash.db"
        db = connect(path, wal_autocheckpoint=0)
        db.execute("CREATE TABLE t (i INT, tag TEXT)")
        db.executemany("INSERT INTO t VALUES (?, 'committed')",
                       [(i,) for i in range(50)])
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("INSERT INTO t VALUES (999, 'uncommitted')")
        crash(db)  # the open transaction never reached COMMIT

        with connect(path) as db2:
            assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 50
            assert db2.execute(
                "SELECT COUNT(*) FROM t WHERE tag = 'uncommitted'"
            ).scalar() == 0

    def test_random_crash_points_expose_exactly_committed_prefix(self, tmp_path):
        """Property test: truncate the WAL at random record boundaries and
        check that recovery exposes exactly the commits that survived."""
        rng = random.Random(0xD15C)
        for trial in range(6):
            path = tmp_path / f"prop{trial}.db"
            db = connect(path, wal_autocheckpoint=0, fsync=False)
            db.execute("CREATE TABLE t (i INT)")
            conn = db.connect()
            for i in range(20):
                conn.execute("BEGIN")
                conn.execute("INSERT INTO t VALUES (?)", (i,))
                conn.commit()
            crash(db)

            # the log holds 1 DDL record + 20 commit records, in order;
            # cut it at a random boundary to simulate a mid-write crash
            lines = wal_path(path).read_bytes().splitlines(keepends=True)
            assert len(lines) == 21
            keep = rng.randint(0, len(lines))
            wal_path(path).write_bytes(b"".join(lines[:keep]))

            db2 = connect(path)
            if keep == 0:
                assert not db2.has_table("t")
            else:
                visible = {r[0] for r in db2.execute("SELECT i FROM t").rows}
                assert visible == set(range(keep - 1))
            db2.close()

            # recovery checkpointed: a second reopen sees identical state
            db3 = connect(path)
            if keep > 0:
                assert db3.execute(
                    "SELECT COUNT(*) FROM t").scalar() == keep - 1
            db3.close()

    def test_crash_after_reopen_keeps_new_commits(self, tmp_path):
        """Regression: LSNs must stay monotonic across opens.  A fresh
        WAL restarting at LSN 1 would stamp post-reopen commits below the
        header's durable_lsn, and bounded replay would skip them."""
        path = tmp_path / "lsn.db"
        with connect(path) as db:
            db.execute("CREATE TABLE t (c TEXT)")
            db.execute("INSERT INTO t VALUES ('old')")
        db = connect(path)
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("INSERT INTO t VALUES ('new')")
        conn.commit()
        crash(db)
        with connect(path) as db2:
            assert sorted(
                db2.execute("SELECT c FROM t").scalars()) == ["new", "old"]

    def test_torn_tail_record_is_discarded(self, tmp_path):
        path = tmp_path / "torn.db"
        db = connect(path, wal_autocheckpoint=0)
        db.execute("CREATE TABLE t (i INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("INSERT INTO t VALUES (2)")
        crash(db)
        # a record half-written at the moment of the crash
        with open(wal_path(path), "ab") as fh:
            fh.write(b'{"op": "commit", "txid": 99, "eve')

        with connect(path) as db2:
            assert {r[0] for r in db2.execute("SELECT i FROM t").rows} == {1, 2}

    def test_torn_checkpoint_replay_is_idempotent(self, tmp_path):
        """Crash after dirty pages hit disk but before the header/WAL
        truncation commit the checkpoint: the tail re-applies over heap
        pages that already contain its effects, and must converge."""
        path = tmp_path / "tornckpt.db"
        db = connect(path, wal_autocheckpoint=0)
        db.execute("CREATE TABLE t (i INT, v TEXT)")
        db.executemany("INSERT INTO t VALUES (?, 'base')",
                       [(i,) for i in range(10)])
        db.checkpoint()
        db.execute("INSERT INTO t VALUES (10, 'tail')")
        db.execute("UPDATE t SET v = 'patched' WHERE i = 3")
        db.execute("DELETE FROM t WHERE i = 4")
        # the torn checkpoint: pages flushed, header and WAL untouched
        db.pager.flush()
        crash(db)

        with connect(path) as db2:
            rows = dict(db2.execute("SELECT i, v FROM t ORDER BY i").rows)
            assert len(rows) == 10  # no duplicated inserts
            assert rows[3] == "patched"
            assert 4 not in rows
            assert rows[10] == "tail"


class TestBufferPoolResidency:
    def test_larger_than_pool_dataset(self, tmp_path):
        path = tmp_path / "bigger.db"
        db = connect(path, pool_pages=16)
        db.execute("CREATE TABLE t (i INT, pad TEXT)")
        db.execute("CREATE INDEX idx_i ON t(i)")
        pad = "p" * 200  # ~18 rows per 4KB page -> ~170 pages for 3000 rows
        db.executemany("INSERT INTO t VALUES (?, ?)",
                       [(i, pad) for i in range(3000)])
        db.checkpoint()
        assert db.pager.page_count > 16  # dataset genuinely exceeds the pool

        # scans and index probes stay correct while residency is bounded
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 3000
        assert db.execute("SELECT SUM(i) FROM t").scalar() == sum(range(3000))
        for probe in (0, 1234, 2999):
            assert db.execute(
                "SELECT pad FROM t WHERE i = ?", (probe,)).scalar() == pad
        assert db.pager.resident_pages <= 16
        assert db.pager.stats["evictions"] > 0
        db.close()

        # recovery of a larger-than-pool dataset is also bounded
        with connect(path, pool_pages=16) as db2:
            assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 3000
            assert db2.pager.resident_pages <= 16

    def test_dirty_pages_may_overrun_until_checkpoint(self, tmp_path):
        db = connect(tmp_path / "nosteal.db", pool_pages=4,
                     wal_autocheckpoint=0)
        db.execute("CREATE TABLE t (i INT, pad TEXT)")
        db.executemany("INSERT INTO t VALUES (?, ?)",
                       [(i, "x" * 400) for i in range(200)])
        # no-steal: uncheckpointed dirty pages are pinned in memory even
        # past the pool budget (they must never hit disk pre-commit)
        assert db.pager.dirty_pages > 4
        db.checkpoint()
        assert db.pager.dirty_pages == 0
        assert db.pager.resident_pages <= 4
        db.close()

    def test_drop_table_recycles_pages(self, tmp_path):
        path = tmp_path / "recycle.db"
        db = connect(path, wal_autocheckpoint=0)
        db.execute("CREATE TABLE big (i INT, pad TEXT)")
        db.executemany("INSERT INTO big VALUES (?, ?)",
                       [(i, "y" * 500) for i in range(500)])
        db.checkpoint()
        grown = db.pager.page_count
        db.execute("DROP TABLE big")
        db.checkpoint()  # promotes the freed chain for reuse
        db.execute("CREATE TABLE again (i INT, pad TEXT)")
        db.executemany("INSERT INTO again VALUES (?, ?)",
                       [(i, "y" * 500) for i in range(400)])
        db.checkpoint()
        # pages were reused: the file grew at most by the one-page slack
        # of catalog-chain churn (the old chain is pending-free until the
        # following checkpoint), never by another table's worth of data
        assert db.pager.page_count <= grown + 1
        db.close()


class TestGroupCommit:
    def test_pragma_round_trip(self, tmp_path):
        db = connect(tmp_path / "g.db", fsync="group")
        assert db.pragma("fsync") == "group"
        db.pragma("fsync", True)
        assert db.pragma("fsync") == "commit"
        db.pragma("fsync", "group")
        assert db.pragma("fsync") == "group"
        db.pragma("fsync", "off")
        assert db.pragma("fsync") == "off"
        db.close()

    def test_concurrent_commits_all_durable(self, tmp_path):
        """N writers under group commit: every committed row survives a
        clean reopen (the leader's fsync covers follower records)."""
        import threading

        path = tmp_path / "group.db"
        db = connect(path, fsync="group", wal_autocheckpoint=0)
        db.execute("CREATE TABLE t (i INT)")
        writers, per_writer = 4, 25
        gate = threading.Barrier(writers)

        def worker(base):
            conn = db.connect()
            gate.wait()
            for i in range(per_writer):
                conn.execute("BEGIN")
                conn.execute("INSERT INTO t VALUES (?)", (base + i,))
                conn.commit()
            conn.close()

        threads = [threading.Thread(target=worker, args=(k * 1000,))
                   for k in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = sorted(k * 1000 + i
                          for k in range(writers) for i in range(per_writer))
        assert sorted(db.execute("SELECT i FROM t").scalars()) == expected
        db.close()
        with connect(path) as reopened:
            assert sorted(reopened.execute("SELECT i FROM t").scalars()) == expected

    def test_commit_then_crash_preserves_synced_tail(self, tmp_path):
        """A committed transaction under group fsync survives a crash —
        the commit barrier does not return before its records are synced."""
        path = tmp_path / "crashy.db"
        db = connect(path, fsync="group", wal_autocheckpoint=0)
        db.execute("CREATE TABLE t (i INT)")
        conn = db.connect()
        for i in range(10):
            conn.execute("BEGIN")
            conn.execute("INSERT INTO t VALUES (?)", (i,))
            conn.commit()
        crash(db)
        with connect(path) as reopened:
            assert reopened.execute("SELECT COUNT(*) FROM t").scalar() == 10
