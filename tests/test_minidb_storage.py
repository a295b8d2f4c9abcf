"""Unit tests for Table storage, affinity, and index maintenance."""

import pytest

from repro.errors import CatalogError, IntegrityError
from repro.minidb.catalog import ColumnDef, TableSchema


def make_table():
    from repro.minidb.storage import Table

    schema = TableSchema("t", [
        ColumnDef.make("name", "TEXT"),
        ColumnDef.make("age", "INT"),
        ColumnDef.make("score", "REAL"),
    ])
    return Table(schema)


class TestAffinity:
    def test_integer_affinity_parses_text(self):
        table = make_table()
        rowid = table.insert(["ada", "36", "1.5"])
        assert table.get(rowid) == ["ada", 36, 1.5]

    def test_integer_affinity_keeps_unparseable_text(self):
        """The type-mismatch case: '12k' survives in a numeric column."""
        table = make_table()
        rowid = table.insert(["ada", "12k", 1.0])
        assert table.get(rowid)[1] == "12k"

    def test_real_affinity_widens_int(self):
        table = make_table()
        rowid = table.insert(["ada", 36, 2])
        assert table.get(rowid)[2] == 2.0
        assert isinstance(table.get(rowid)[2], float)

    def test_integer_affinity_narrows_integral_float(self):
        table = make_table()
        rowid = table.insert(["ada", 36.0, 1.0])
        assert table.get(rowid)[1] == 36
        assert isinstance(table.get(rowid)[1], int)

    def test_text_affinity_stringifies_numbers(self):
        table = make_table()
        rowid = table.insert([42, 1, 1.0])
        assert table.get(rowid)[0] == "42"

    def test_null_passes_through(self):
        table = make_table()
        rowid = table.insert([None, None, None])
        assert table.get(rowid) == [None, None, None]

    def test_bool_becomes_int(self):
        table = make_table()
        rowid = table.insert(["x", True, False])
        assert table.get(rowid)[1] == 1


class TestMutations:
    def test_rowids_are_stable_and_monotonic(self):
        table = make_table()
        first = table.insert(["a", 1, 1.0])
        second = table.insert(["b", 2, 2.0])
        table.delete(first)
        third = table.insert(["c", 3, 3.0])
        assert third > second

    def test_explicit_rowid_reuse_after_delete(self):
        table = make_table()
        rowid = table.insert(["a", 1, 1.0])
        table.delete(rowid)
        table.insert(["a2", 1, 1.0], rowid=rowid)
        assert table.get(rowid)[0] == "a2"

    def test_duplicate_rowid_rejected(self):
        table = make_table()
        rowid = table.insert(["a", 1, 1.0])
        with pytest.raises(IntegrityError):
            table.insert(["b", 2, 2.0], rowid=rowid)

    def test_wrong_arity_rejected(self):
        table = make_table()
        with pytest.raises(IntegrityError):
            table.insert(["a", 1])

    def test_update_returns_old_values(self):
        table = make_table()
        rowid = table.insert(["a", 1, 1.0])
        old = table.update(rowid, {1: 99})
        assert old == {1: 1}
        assert table.get(rowid)[1] == 99

    def test_delete_missing_row(self):
        table = make_table()
        with pytest.raises(IntegrityError):
            table.delete(42)

    def test_scan_yields_all(self):
        table = make_table()
        for i in range(5):
            table.insert([f"r{i}", i, float(i)])
        assert len(list(table.scan())) == 5

    def test_change_events_emitted(self):
        table = make_table()
        events = []
        table.on_change = events.append
        rowid = table.insert(["a", 1, 1.0])
        table.update(rowid, {1: 2})
        table.delete(rowid)
        assert [e[0] for e in events] == ["insert", "update", "delete"]


class TestIndexMaintenance:
    def test_index_backfilled_on_create(self):
        table = make_table()
        rowid = table.insert(["a", 1, 1.0])
        table.create_index("ix", "name")
        assert table.indexes["ix"].lookup("a") == {rowid}

    def test_index_tracks_insert_update_delete(self):
        table = make_table()
        table.create_index("ix", "age")
        rowid = table.insert(["a", 10, 1.0])
        assert table.indexes["ix"].lookup(10) == {rowid}
        table.update(rowid, {1: 20})
        assert table.indexes["ix"].lookup(10) == set()
        assert table.indexes["ix"].lookup(20) == {rowid}
        table.delete(rowid)
        assert table.indexes["ix"].lookup(20) == set()

    def test_duplicate_index_name(self):
        table = make_table()
        table.create_index("ix", "age")
        with pytest.raises(CatalogError):
            table.create_index("ix", "name")

    def test_drop_index(self):
        table = make_table()
        table.create_index("ix", "age")
        table.drop_index("ix")
        assert table.indexes_on("age") == []
        with pytest.raises(CatalogError):
            table.drop_index("ix")


class TestAddColumn:
    def test_existing_rows_get_null(self):
        table = make_table()
        rowid = table.insert(["a", 1, 1.0])
        table.add_column(ColumnDef.make("extra", "TEXT"))
        assert table.get(rowid) == ["a", 1, 1.0, None]
        new = table.insert(["b", 2, 2.0, "x"])
        assert table.get(new)[3] == "x"
