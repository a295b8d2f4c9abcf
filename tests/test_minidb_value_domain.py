"""minidb's one value domain: a cell is None, an int, a float or a str.

A bool is stored as its int and a numpy scalar as its Python value; a list,
a dict or any other object is refused with ``IntegrityError`` at every way
in — bulk insert, ``INSERT``/``UPDATE`` parameters, ``WHERE`` parameters —
for in-memory and file databases alike.  Heap records written with the
retired JSON tag fail to decode with ``DatabaseError``.
"""

import struct

import numpy as np
import pytest

from repro.backends import make_backend
from repro.errors import DatabaseError, IntegrityError, ReproError
from repro.frame import DataFrame
from repro.minidb import Database, connect
from repro.minidb.record import encode_values

NON_SCALARS = [[2], {"k": 1}, (1, 2), b"x", object(), np.array([1, 2])]
NON_SCALAR_IDS = ["list", "dict", "tuple", "bytes", "object", "array"]


@pytest.fixture(params=["memory", "file"])
def db(request, tmp_path):
    handle = Database() if request.param == "memory" else connect(tmp_path / "t.db")
    handle.execute("CREATE TABLE t (c BLOB, n INTEGER, s TEXT, r REAL)")
    handle.insert_rows("t", [(1, 1, "a", 1.5)])
    yield handle
    handle.close()


def _rows(db):
    return db.execute("SELECT c, n, s, r FROM t ORDER BY rowid").rows


class TestNonScalarsAreRefused:
    @pytest.mark.parametrize("cell", NON_SCALARS, ids=NON_SCALAR_IDS)
    @pytest.mark.parametrize("position", [0, 1, 2, 3], ids=["blob", "int", "text", "real"])
    def test_insert_rows(self, db, cell, position):
        row = [2, 2, "b", 2.5]
        row[position] = cell
        with pytest.raises(IntegrityError, match="not a cell"):
            db.insert_rows("t", [(3, 3, "c", 3.5), tuple(row)])
        assert _rows(db) == [(1, 1, "a", 1.5)]

    @pytest.mark.parametrize("cell", NON_SCALARS, ids=NON_SCALAR_IDS)
    def test_insert_parameter(self, db, cell):
        with pytest.raises(IntegrityError, match="not a cell"):
            db.execute("INSERT INTO t (c, n) VALUES (?, ?)", (cell, 2))
        assert _rows(db) == [(1, 1, "a", 1.5)]

    @pytest.mark.parametrize("cell", NON_SCALARS, ids=NON_SCALAR_IDS)
    @pytest.mark.parametrize("column", ["c", "n", "s", "r"])
    def test_update_parameter(self, db, cell, column):
        with pytest.raises(IntegrityError, match="not a cell"):
            db.execute(f"UPDATE t SET {column} = ?", (cell,))
        assert _rows(db) == [(1, 1, "a", 1.5)]

    @pytest.mark.parametrize("cell", NON_SCALARS, ids=NON_SCALAR_IDS)
    def test_where_parameter(self, db, cell):
        with pytest.raises(IntegrityError, match="not a cell"):
            db.execute("SELECT COUNT(*) FROM t WHERE c = ?", (cell,))
        with pytest.raises(IntegrityError, match="not a cell"):
            db.stream("SELECT c FROM t WHERE c = ?", (cell,))
        conn = db.connect()
        with pytest.raises(IntegrityError, match="not a cell"):
            conn.execute("SELECT COUNT(*) FROM t WHERE c = ?", (cell,))
        conn.close()

    @pytest.mark.parametrize("kind", ["sql", "frame"])
    def test_backend_cell_write(self, kind):
        backend = make_backend(DataFrame.from_dict({"c": [1, "x"]}), kind)
        with pytest.raises(ReproError, match="not a"):
            backend.set_cells("c", [1], [2])
        with pytest.raises(ReproError, match="not a"):
            backend.set_cells("c", [1, 2], values=[{"k": 1}, 3])
        assert backend.values("c", [1, 2]) == [1, "x"]


class TestScalarsAreNormalised:
    def test_numpy_scalars_store_as_python_values(self, db):
        db.insert_rows("t", [(np.int64(7), np.int32(8), np.str_("u"), np.float32(0.5)),
                             (np.bool_(True), np.bool_(False), np.float64(2.0), np.nan)])
        rows = _rows(db)[1:]
        assert rows == [(7, 8, "u", 0.5), (1, 0, "2.0", None)]
        assert [type(v) for v in rows[0]] == [int, int, str, float]

    def test_numpy_parameters_bind_as_python_values(self, db):
        assert db.execute("SELECT ?", (np.int64(3),)).scalar() == 3
        assert type(db.execute("SELECT ?", (np.int64(3),)).scalar()) is int
        assert db.execute("SELECT COUNT(*) FROM t WHERE n = ?", (np.int64(1),)).scalar() == 1

    def test_infinities_in_an_integer_column_stay_floats(self, db):
        db.insert_rows("t", [(None, float("inf"), float("-inf"), None),
                             (None, "inf", None, None)])
        assert [row[1:3] for row in _rows(db)[1:]] == [
            (float("inf"), "-inf"), (float("inf"), None)]


class TestIndexAgreesWithScan:
    """Text that looks like a JSON list keys as text, by scan and by index;
    the list itself can no longer be stored next to it."""

    @pytest.mark.parametrize("vectorize", ["off", "on"])
    def test_equality_counts_match(self, vectorize):
        db = Database(vectorize=vectorize)
        db.execute("CREATE TABLE t (c BLOB)")
        db.insert_rows("t", [("[2]",)] * 100 + [(2,)] * 100)
        with pytest.raises(IntegrityError):
            db.insert_rows("t", [([2],)])
        scan = [db.execute("SELECT COUNT(*) FROM t WHERE c = '[2]'").scalar(),
                db.execute("SELECT COUNT(*) FROM t WHERE c = ?", ("[2]",)).scalar()]
        db.execute("CREATE INDEX ic ON t (c)")
        assert "Index" in db.explain("SELECT COUNT(*) FROM t WHERE c = ?")
        indexed = [db.execute("SELECT COUNT(*) FROM t WHERE c = '[2]'").scalar(),
                   db.execute("SELECT COUNT(*) FROM t WHERE c = ?", ("[2]",)).scalar()]
        assert scan == indexed == [100, 100]
        with pytest.raises(IntegrityError):
            db.execute("SELECT COUNT(*) FROM t WHERE c = ?", ([2],))


class TestRetiredJsonTag:
    def test_record_with_tag_5_fails_to_decode(self, tmp_path):
        """Tag 5 once held a JSON list or object: a file holding one opens,
        and reading the row raises DatabaseError instead of a value."""
        path = tmp_path / "old.db"
        db = connect(path)
        db.execute("CREATE TABLE t (c BLOB)")
        db.insert_rows("t", [("[2]",)])
        db.close()
        text_record = encode_values(["[2]"])
        json_record = struct.pack("<HB", 1, 5) + text_record[3:]
        data = path.read_bytes()
        assert data.count(text_record) == 1
        path.write_bytes(data.replace(text_record, json_record))
        db = connect(path)
        with pytest.raises(DatabaseError, match="unknown value tag 5"):
            db.execute("SELECT c FROM t").rows
        db.close()
