"""UNIQUE vs. dead MVCC versions: backfill and targeted GC regressions.

A deleted (or superseded) row version keeps its index entries until
garbage collection so older snapshots can still find it.  Those stale
entries must never block a writer:

* ``CREATE UNIQUE INDEX`` backfills dead chain versions *without*
  UNIQUE enforcement — a dead version's key may legitimately collide
  with a live row's.
* A writer whose UNIQUE probe trips over dead entries collects exactly
  those rowids on the spot (``Table.gc_rowid`` under the write lock)
  instead of waiting for a full GC pass — while the GC horizon keeps
  protecting whatever an outstanding snapshot can still see.
"""

from __future__ import annotations

import pytest

from repro.errors import IntegrityError
from repro.minidb.database import Database


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (k TEXT, n INT)")
    return database


def test_create_unique_index_ignores_dead_versions(db):
    """A dead version holding a live row's key must not fail the build."""
    db.execute("INSERT INTO t VALUES ('x', 1)")
    # hold a snapshot so the update leaves a version chain behind
    cursor = db.stream("SELECT * FROM t")
    db.execute("UPDATE t SET k = 'y' WHERE n = 1")   # old 'x' version is dead
    db.execute("INSERT INTO t VALUES ('x', 2)")      # live owner of 'x'
    # live state {'y', 'x'} is unique; the dead 'x' version must not block
    db.execute("CREATE UNIQUE INDEX u_k ON t(k)")
    cursor.close()
    with pytest.raises(IntegrityError):
        db.execute("INSERT INTO t VALUES ('x', 3)")


def test_create_unique_index_still_rejects_live_duplicates(db):
    db.execute("INSERT INTO t VALUES ('x', 1)")
    db.execute("INSERT INTO t VALUES ('x', 2)")
    with pytest.raises(IntegrityError):
        db.execute("CREATE UNIQUE INDEX u_k ON t(k)")


def test_unique_insert_targeted_gc_purges_dead_entry(db):
    """A dead entry past the horizon is collected by the blocked writer."""
    db.execute("CREATE UNIQUE INDEX u_k ON t(k)")
    db.execute("INSERT INTO t VALUES ('x', 1)")
    table = db.table("t")
    index = table.indexes["u_k"]

    # a snapshot pins GC across the delete's commit...
    blocker = db.stream("SELECT * FROM t")
    db.execute("DELETE FROM t WHERE n = 1")
    assert 1 in table.versions  # the dead version lingers, entry and all
    assert index.lookup("x") == {1}
    # ...and a second snapshot, opened after the delete committed, keeps
    # the no-outstanding-snapshots GC trigger from ever firing when the
    # first one closes
    late = db.stream("SELECT * FROM t")
    blocker.close()
    assert 1 in table.versions

    # the writer hits the stale 'x' entry, collects rowid 1 on the spot
    # (the late snapshot's horizon is past the delete), and proceeds
    db.execute("INSERT INTO t VALUES ('x', 2)")
    assert 1 not in table.versions
    rowids = {rowid for rowid, _ in table.scan()}
    assert index.lookup("x") & rowids == index.lookup("x")
    late.close()


def test_targeted_gc_respects_snapshot_horizon(db):
    """Entries an older snapshot still sees survive the targeted pass."""
    db.execute("CREATE UNIQUE INDEX u_k ON t(k)")
    db.execute("INSERT INTO t VALUES ('x', 1)")
    # this snapshot predates the delete: it must keep seeing ('x', 1)
    old = db.stream("SELECT k, n FROM t")
    db.execute("DELETE FROM t WHERE n = 1")
    table = db.table("t")
    assert 1 in table.versions

    # re-inserting 'x' trips the stale entry; the targeted GC must leave
    # the chain alone because `old` can still see it
    db.execute("INSERT INTO t VALUES ('x', 2)")
    assert 1 in table.versions
    assert set(old.materialize()) == {("x", 1)}


def test_unique_still_blocks_genuine_duplicates_after_gc_path(db):
    db.execute("CREATE UNIQUE INDEX u_k ON t(k)")
    db.execute("INSERT INTO t VALUES ('x', 1)")
    cursor = db.stream("SELECT * FROM t")
    db.execute("UPDATE t SET n = 5 WHERE n = 1")  # chain exists, 'x' live
    with pytest.raises(IntegrityError):
        db.execute("INSERT INTO t VALUES ('x', 2)")
    cursor.close()
