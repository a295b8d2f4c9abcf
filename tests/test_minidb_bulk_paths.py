"""Exactness oracles for the bulk load paths.

Planner counts are read off the B+tree's incremental counters, indexes
are built bottom-up from grouped keys, frame columns are loaded whole
and ``insert_rows`` coerces a batch at once.  Each of those paths must
leave exactly the state a per-value loop produces; the per-value
references live here, in the tests, and nowhere in the program.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends.sql_backend import SQLBackend
from repro.errors import IntegrityError
from repro.frame import DataFrame
from repro.minidb import Database, connect
from repro.minidb.btree import BTreeIndex
from repro.minidb.functions import sort_key
from repro.minidb.pager import PAGE_DATA, Pager
from repro.minidb.planner import column_counts

HUGE = 10 ** 400


# ---------------------------------------------------------------------------
# references: the per-value loops the bulk paths replaced
# ---------------------------------------------------------------------------


def reference_counts(table, column: str) -> tuple:
    """``(distinct, null_fraction)`` of ``column`` counted value by value
    over the live rows: non-NULL values under plain equality."""
    position = table.schema.position(column)
    seen: set = set()
    nulls = 0
    for rowid in list(table.rows.keys()):
        value = table.rows.get(rowid)[position]
        if value is None:
            nulls += 1
            continue
        seen.add(value)
    n = table.n_rows
    return float(max(1, len(seen))), nulls / n if n else 0.0


def reference_index(table, name, columns, unique=False):
    """An index filled one ``add_row`` at a time (live rows, then the
    chain versions that differ from them, unchecked)."""
    positions = tuple(table.schema.position(c) for c in columns)
    index = BTreeIndex(name, columns, positions, unique=unique)
    index.owner = table
    for rowid, row in table.rows.items():
        index.add_row(row, rowid)
    for rowid, chain in table.versions.items():
        for version in chain:
            if version.values != table.rows.get(rowid):
                index.add_row(version.values, rowid, check_unique=False)
    return index


def index_state(index) -> dict:
    tree = index._tree
    tree.check_invariants()
    return {"len": len(index), "n_keys": index.n_keys,
            "scan": list(tree.range_scan()),
            "desc": list(tree.range_scan_desc()),
            "nulls": set(index.null_rowids)}


# ---------------------------------------------------------------------------
# cell strategies
# ---------------------------------------------------------------------------

_SCALARS = st.one_of(
    st.none(),
    st.integers(-50, 50),
    st.integers(-2 ** 70, 2 ** 70),
    st.floats(-1e6, 1e6, allow_nan=False).map(lambda f: round(f, 1)),
    st.booleans(),
    st.sampled_from(["a", "b", "c", "12", "x y", ""]),
    st.sampled_from([HUGE, -HUGE, HUGE + 1]),
    st.just(2 ** 53 + 1),
    st.just(float(2 ** 53)),
)

_TYPES = ["INT", "REAL", "TEXT", "BLOB"]


@st.composite
def tables(draw):
    types = draw(st.lists(st.sampled_from(_TYPES), min_size=1, max_size=4))
    cells = st.tuples(*(_SCALARS for _t in types))
    return types, draw(st.lists(cells, max_size=60))


def _open(tmpdir, kind):
    if kind == "file":
        return connect(os.path.join(tmpdir, "t.db"))
    return Database()


def _create(db, types, name="t"):
    cols = ", ".join(f"c{i} {t}" for i, t in enumerate(types))
    db.execute(f"CREATE TABLE {name} ({cols})")


# ---------------------------------------------------------------------------
# planner counts: off the index's counters, same numbers
# ---------------------------------------------------------------------------


class TestColumnarStatistics:
    @pytest.mark.parametrize("heap", ["memory", "file"])
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spec=tables(), deleted=st.sets(st.integers(1, 60), max_size=10))
    def test_index_counts_equal_per_value_loop(self, heap, spec, deleted):
        types, rows = spec
        with tempfile.TemporaryDirectory() as tmpdir:
            db = _open(tmpdir, heap)
            _create(db, types)
            db.execute("CREATE INDEX ib ON t (c0)")
            db.insert_rows("t", rows)
            for rowid in deleted:
                db.execute("DELETE FROM t WHERE rowid = ?", (rowid,))
            table = db.table("t")
            assert column_counts(table, "c0") == reference_counts(table, "c0")
            db.close()

    def test_numbers_a_float_cannot_tell_apart_stay_separate_tallies(self):
        db = Database()
        db.execute("CREATE TABLE t (v BLOB)")
        db.insert_rows("t", [(2 ** 53 + 1,), (float(2 ** 53),)] * 4)
        db.execute("CREATE INDEX iv ON t (v)")
        table = db.table("t")
        assert column_counts(table, "v") == (2.0, 0.0)
        assert column_counts(table, "v") == reference_counts(table, "v")


# ---------------------------------------------------------------------------
# indexes: built bottom-up, same structure
# ---------------------------------------------------------------------------


_KEYED = st.one_of(st.none(), st.integers(-20, 20), st.sampled_from(
    ["p", "q", "r"]), st.sampled_from([HUGE, -HUGE]),
    st.floats(-5, 5, allow_nan=False))


class TestBulkIndexBuild:
    @pytest.mark.parametrize("kind", ["btree"])
    @pytest.mark.parametrize("heap", ["memory", "file"])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows=st.lists(st.tuples(_KEYED, _KEYED), max_size=300),
           columns=st.sampled_from([("a",), ("b",), ("a", "b"), ("b", "a")]),
           later=st.lists(st.tuples(_KEYED, _KEYED), max_size=20),
           doomed=st.sets(st.integers(1, 320), max_size=30))
    def test_bulk_build_equals_incremental(self, kind, heap, rows, columns,
                                           later, doomed):
        with tempfile.TemporaryDirectory() as tmpdir:
            db = _open(tmpdir, heap)
            db.execute("CREATE TABLE t (a BLOB, b BLOB)")
            db.insert_rows("t", rows)
            table = db.table("t")
            with db.txn.lock:
                reference = reference_index(table, "ref", columns)
                table.create_index("ix", columns)
                assert index_state(table.indexes["ix"]) == index_state(reference)
                # later writes maintain both through the same row paths
                table.indexes["ref"] = reference
            db.insert_rows("t", later)
            for rowid in sorted(doomed):
                db.execute("DELETE FROM t WHERE rowid = ?", (rowid,))
            assert index_state(table.indexes["ix"]) == index_state(reference)
            db.close()

    @pytest.mark.parametrize("kind", ["btree"])
    def test_chain_versions_are_indexed_unchecked(self, kind):
        db = Database()
        db.execute("CREATE TABLE t (a INT, b TEXT)")
        db.insert_rows("t", [(i % 7, f"s{i}") for i in range(40)])
        reader = db.connect()
        reader.execute("BEGIN")
        reader.execute("SELECT COUNT(*) FROM t")  # pins the snapshot
        db.execute("UPDATE t SET a = a + 100 WHERE a < 3")
        db.execute("DELETE FROM t WHERE a = 5")
        db.execute("UPDATE t SET b = 'moved' WHERE rowid = 8")
        table = db.table("t")
        assert table.versions
        for columns in (("a",), ("b",), ("a", "b")):
            with db.txn.lock:
                reference = reference_index(table, "ref", columns)
                table.create_index("ix", columns)
                assert index_state(table.indexes["ix"]) == index_state(reference)
                table.drop_index("ix")
        # UNIQUE ignores chain versions: b was unique before and after
        db.execute(f"CREATE UNIQUE INDEX ub ON t (b) USING {kind}")
        assert reader.execute(
            "SELECT COUNT(*) FROM t WHERE b = 's8'").scalar() == 1
        reader.commit()
        reader.close()

    @pytest.mark.parametrize("kind", ["btree"])
    @pytest.mark.parametrize("columns", [("a",), ("a", "b")])
    def test_unique_violation_matches_incremental(self, kind, columns):
        db = Database()
        db.execute("CREATE TABLE t (a INT, b INT)")
        db.insert_rows("t", [(1, 1), (None, 1), (2, 1), (None, 1), (1.0, 1),
                             (3, 1), (2, 1)])
        table = db.table("t")
        with db.txn.lock:
            with pytest.raises(IntegrityError) as incremental:
                reference_index(table, "u", columns, unique=True)
            with pytest.raises(IntegrityError) as bulk:
                table.create_index("u", columns, unique=True)
        assert str(bulk.value) == str(incremental.value)
        assert "u" not in table.indexes
        # NULLs never collide: a column unique apart from its NULLs builds
        db.execute("DELETE FROM t WHERE rowid IN (5, 7)")
        db.execute(f"CREATE UNIQUE INDEX u ON t ({', '.join(columns)}) "
                   f"USING {kind}")
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO t VALUES (3, 1)")

    def test_recovery_rebuilds_the_same_index(self, tmp_path):
        path = tmp_path / "r.db"
        db = connect(path)
        db.execute("CREATE TABLE t (a REAL, b TEXT)")
        db.insert_rows("t", [(float(i % 37), f"k{i % 11}") for i in range(3000)]
                       + [(None, None)] * 5)
        db.execute("CREATE INDEX ia ON t (a)")
        db.execute("CREATE INDEX ib ON t (b, a)")
        db.execute("CREATE INDEX ih ON t (b)")
        before = {name: index_state(ix)
                  for name, ix in db.table("t").indexes.items()}
        db.close()
        with connect(path) as db2:
            after = {name: index_state(ix)
                     for name, ix in db2.table("t").indexes.items()}
        assert after == before

    def test_load_sorted_tree_accepts_later_writes(self):
        from repro.minidb.btree import BTree
        tree = BTree(order=4)
        tree.load_sorted([((1, float(k)), {k}) for k in range(0, 200, 2)])
        tree.check_invariants()
        for k in range(1, 200, 2):
            tree.insert((1, float(k)), k)
        for k in range(0, 200, 3):
            tree.remove((1, float(k)), k)
        tree.check_invariants()
        assert [key[1] for key, _ in tree.range_scan()] == [
            float(k) for k in range(200) if k % 3]
        with pytest.raises(ValueError):
            tree.load_sorted([((1, 0.0), {0})])


# ---------------------------------------------------------------------------
# upload: frame columns loaded whole, coerced per column
# ---------------------------------------------------------------------------


def _typed(rows):
    return [[(type(v), v) for v in row] for row in rows]


class TestUpload:
    def test_from_frame_stores_the_rows_a_row_by_row_load_stores(self):
        frame = DataFrame.from_dict({
            "i": [1, None, 3, -4, 5],
            "f": [1.5, float("nan"), None, 2.0, -0.0],
            "b": [True, False, None, True, False],
            "s": ["x", None, "12", "", "y"],
            "m": [1, "12k", None, 2.5, "z"],
        })
        backend = SQLBackend.from_frame(frame)
        table = backend._table
        db = Database()
        cols = ", ".join(f'"{c.name}" {c.type_name}'
                         for c in table.schema.columns)
        db.execute(f"CREATE TABLE data ({cols})")
        for row in frame.iter_rows():
            db.insert_rows("data", [row])
        assert list(table.rows) == list(db.table("data").rows)
        assert _typed(table.rows.values()) == _typed(
            db.table("data").rows.values())

    def test_column_to_list_matches_iteration(self):
        frame = DataFrame.from_dict({
            "i": [1, None, 3], "f": [0.5, None, 2.0], "b": [True, None, False],
            "s": ["a", None, "c"], "m": [1, "x", None]})
        for column in frame.columns:
            assert [(type(v), v) for v in column.to_list()] == [
                (type(v), v) for v in column]

    @pytest.mark.parametrize("heap", ["memory", "file"])
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spec=tables())
    def test_batch_coercion_equals_row_by_row(self, heap, spec):
        types, rows = spec
        with tempfile.TemporaryDirectory() as tmpdir:
            db = _open(tmpdir, heap)
            _create(db, types, "bulk")
            _create(db, types, "single")
            db.insert_rows("bulk", rows)
            for row in rows:
                db.insert_rows("single", [row])
            bulk, single = db.table("bulk"), db.table("single")
            assert _typed(bulk.rows.values()) == _typed(single.rows.values())
            db.close()


class TestInsertRowsAtomic:
    @pytest.mark.parametrize("heap", ["memory", "file"])
    def test_bad_arity_inserts_nothing(self, tmp_path, heap):
        path = tmp_path / "a.db"
        db = connect(path) if heap == "file" else Database()
        db.execute("CREATE TABLE t (a INT, b TEXT)")
        db.insert_rows("t", [(0, "w")])
        with pytest.raises(IntegrityError):
            db.insert_rows("t", [(1, "x"), (2, "y"), (3,), (4, "z")])
        assert db.execute("SELECT a FROM t").rows == [(0,)]
        assert db.insert_rows("t", [(5, "v")]) == [2]
        if heap == "file":
            db.close()
            db = connect(path)
            assert db.execute("SELECT a FROM t ORDER BY a").rows == [(0,), (5,)]
        db.close()

    @pytest.mark.parametrize("heap", ["memory", "file"])
    def test_storage_error_mid_batch_undoes_the_prefix(self, tmp_path, heap):
        path = tmp_path / "u.db"
        db = connect(path) if heap == "file" else Database()
        db.execute("CREATE TABLE t (a INT, b TEXT)")
        db.execute("CREATE UNIQUE INDEX ua ON t (a)")
        db.execute("CREATE INDEX ib ON t (b)")
        db.insert_rows("t", [(0, "w")])
        events = []
        db.table("t").observers.append(events.append)
        with pytest.raises(IntegrityError):
            db.insert_rows("t", [(1, "x"), (2, "y"), (0, "dup"), (4, "z")])
        assert db.execute("SELECT a, b FROM t").rows == [(0, "w")]
        assert db.execute("SELECT COUNT(*) FROM t WHERE b = 'x'").scalar() == 0
        assert [e[0] for e in events] == ["insert", "insert", "delete", "delete"]
        if heap == "file":
            db.close()
            db = connect(path)
            assert db.execute("SELECT a, b FROM t").rows == [(0, "w")]
        db.close()

    def test_failed_batch_inside_a_transaction_keeps_earlier_work(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        db.execute("CREATE UNIQUE INDEX ua ON t (a)")
        db.execute("BEGIN")
        db.insert_rows("t", [(1,)])
        with pytest.raises(IntegrityError):
            db.insert_rows("t", [(2,), (1,)])
        db.execute("COMMIT")
        assert db.execute("SELECT a FROM t").rows == [(1,)]


# ---------------------------------------------------------------------------
# integers beyond float range
# ---------------------------------------------------------------------------


class TestHugeIntegers:
    @pytest.mark.parametrize("heap", ["memory", "file"])
    def test_queries_on_a_table_holding_one(self, tmp_path, heap):
        db = connect(tmp_path / "h.db") if heap == "file" else Database()
        db.execute("CREATE TABLE t (a INT, b TEXT)")
        db.execute("INSERT INTO t VALUES (5, 'y')")
        db.execute(f"INSERT INTO t VALUES ({HUGE}, 'x')")
        db.execute(f"INSERT INTO t VALUES ({-HUGE}, 'z')")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 3
        db.analyze()
        expected = [(-HUGE,), (5,), (HUGE,)]
        assert db.execute("SELECT a FROM t ORDER BY a").rows == expected
        db.execute("CREATE INDEX ia ON t(a)")
        assert db.execute("SELECT a FROM t ORDER BY a").rows == expected
        assert db.execute(
            "SELECT b FROM t WHERE a = ?", (HUGE,)).rows == [("x",)]
        assert db.execute(
            "SELECT b FROM t WHERE a = ?", (HUGE + 1,)).rows == []
        db.close()

    def test_keys_sort_at_infinity_and_keep_the_exact_value(self):
        inf = float("inf")
        assert sort_key(-inf) < sort_key(-HUGE) < sort_key(-1e308) < sort_key(1e308)
        assert sort_key(1e308) < sort_key(HUGE) < sort_key(HUGE + 1) < sort_key(inf)
        assert sort_key(inf) < sort_key("text")
        # plain equality, the GROUP BY/DISTINCT key, keeps them apart too
        assert len({HUGE, HUGE + 1, inf, 2 ** 53 + 1, float(2 ** 53)}) == 5


# ---------------------------------------------------------------------------
# buffer pool: dirty pages stay out of the LRU
# ---------------------------------------------------------------------------


class TestCleanOnlyEviction:
    def test_dirty_pages_are_skipped_and_the_budget_holds(self, tmp_path):
        pager = Pager(tmp_path / "e.db", pool_pages=6)
        clean = [pager.allocate(PAGE_DATA).pid for _ in range(4)]
        pager.flush()
        dirty = [pager.allocate(PAGE_DATA) for _ in range(2)]
        assert pager.resident_pages == 6
        for pid in clean[1:]:
            pager.get(pid)  # clean[0] is now the least recently used
        evictions = pager.stats["evictions"]
        pager.mark_dirty(pager.get(clean[1]))  # dirtying keeps it resident
        extra = pager.allocate(PAGE_DATA)
        assert pager.stats["evictions"] == evictions + 1
        assert pager.resident_pages == 6
        misses = pager.stats["misses"]
        for page in dirty + [extra]:
            assert pager.get(page.pid) is page  # served from the dirty set
        pager.get(clean[2])
        assert pager.stats["misses"] == misses
        pager.get(clean[0])  # the evicted page reloads from disk
        assert pager.stats["misses"] == misses + 1
        assert pager.resident_pages == 6
        pager.close()
