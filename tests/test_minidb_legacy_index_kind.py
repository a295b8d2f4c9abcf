"""Files that name the retired hash index kind reopen with B+tree indexes.

Every minidb index is a B+tree.  Files written before may still say
otherwise in two places: a durable catalog page entry storing
``"kind": "hash"``, and a WAL tail holding ``CREATE [UNIQUE] INDEX ...
USING hash``.  Both reopen with B+tree indexes that serve equality,
``IS NULL`` and ordered walks, answer like an unindexed twin, and keep
enforcing UNIQUE with the same error.
"""

import pytest

from repro.errors import IntegrityError
from repro.minidb import BTreeIndex, Database, connect

ROWS = [(i, None if i % 7 == 0 else f"c{i % 5}") for i in range(60)]

LEGACY_DDL = (
    "CREATE INDEX t_cat ON t (cat) USING hash",
    "CREATE UNIQUE INDEX t_id ON t (id) USING hash",
)

# (sql, params, the access path the B+tree must serve it with)
PROBES = [
    ("SELECT id, cat FROM t WHERE cat = ?", ("c2",), "IndexEqScan"),
    ("SELECT id FROM t WHERE cat IS NULL", (), "IndexNullScan"),
    ("SELECT cat FROM t ORDER BY cat LIMIT 12", (), "IndexOrderScan"),
    ("SELECT cat FROM t ORDER BY cat DESC LIMIT 12", (), "IndexOrderScan"),
    ("SELECT cat FROM t WHERE id = ?", (14,), "IndexEqScan"),
    ("SELECT id FROM t ORDER BY id DESC LIMIT 4", (), "IndexOrderScan"),
]


def _load(db) -> None:
    db.execute("CREATE TABLE t (id INTEGER, cat TEXT)")
    db.insert_rows("t", ROWS)


def _crash(db) -> None:
    """Drop the file handles without a checkpoint, like a power cut."""
    db.pager._fh.close()
    db.wal._handle.close()
    db._closed = True


def _assert_btree_answers(db) -> None:
    table = db.table("t")
    assert sorted(table.indexes) == ["t_cat", "t_id"]
    assert all(isinstance(ix, BTreeIndex) for ix in table.indexes.values())
    assert table.indexes["t_id"].unique
    plain = Database()
    _load(plain)
    for sql, params, path in PROBES:
        assert path in db.explain(sql), sql
        got = db.execute(sql, params).rows
        want = plain.execute(sql, params).rows
        if "ORDER BY" in sql:
            assert got == want, sql
        else:
            assert sorted(got, key=repr) == sorted(want, key=repr), sql
    with pytest.raises(IntegrityError) as raised:
        db.execute("INSERT INTO t VALUES (5, 'dup')")
    assert str(raised.value) == "UNIQUE index t_id: duplicate value 5"


def test_catalog_page_kind_hash_reopens_as_btree(tmp_path, monkeypatch):
    path = tmp_path / "catalog.db"
    db = connect(path)
    _load(db)
    for sql in LEGACY_DDL:
        db.execute(sql)
    serialize = db._serialize_catalog

    def legacy_catalog():
        catalog = serialize()
        for entry in catalog["indexes"]:
            entry["kind"] = "hash"
        return catalog

    monkeypatch.setattr(db, "_serialize_catalog", legacy_catalog)
    db.close()
    with connect(path) as reopened:
        assert "kind" not in reopened.index_catalog["t_cat"].to_dict()
        _assert_btree_answers(reopened)


def test_wal_tail_using_hash_replays_as_btree(tmp_path):
    path = tmp_path / "wal.db"
    db = connect(path, wal_autocheckpoint=0)
    _load(db)
    for sql in LEGACY_DDL:
        db.execute(sql)
    _crash(db)
    tail = path.with_name(path.name + "-wal").read_text()
    assert all(sql in tail for sql in LEGACY_DDL)
    with connect(path) as reopened:
        _assert_btree_answers(reopened)
