"""Partitioned tables.

Three layers of coverage:

* routing units — ``stable_hash`` determinism/normalization,
  :class:`PartitionSpec` validation and catalog round-trip,
  :class:`PartitionedHeap` move semantics, :class:`MergingIterator`;
* partitioned-vs-plain parity — a hypothesis property suite over query
  shapes × partition clauses, plus a file-mode check: a partitioned
  table answers every query exactly as an unpartitioned one does
  (order-exact where ORDER BY pins the order, as a multiset otherwise —
  a partitioned scan is partition-major, a plain one insertion-ordered),
  and a reopened file routes and scans as the writer did;
* MVCC — a snapshot over a partitioned table is unchanged by concurrent
  writes, and uncommitted writes stay invisible to other sessions.

Numeric values are dyadic (multiples of 0.5) wherever SUM/AVG parity is
asserted bit-for-bit: the partition-major scan adds the same floats in a
different order than the plain table, which is exact for dyadic
rationals but can drift a ulp otherwise.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, DatabaseError
from repro.minidb import Database, connect
from repro.minidb.partition import (
    MergingIterator,
    PartitionSpec,
    PartitionedHeap,
    stable_hash,
)


# ---------------------------------------------------------------------------
# routing units
# ---------------------------------------------------------------------------


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("k17") == stable_hash("k17")
        assert stable_hash(42) == stable_hash(42)

    def test_numeric_normalization_routes_together(self):
        assert stable_hash(1) == stable_hash(1.0) == stable_hash(True)
        assert stable_hash(0) == stable_hash(False)

    def test_null_routes_to_partition_zero(self):
        assert stable_hash(None) == 0

    def test_small_moduli_spread(self):
        # the splitmix64 finalizer exists exactly for this: sequential
        # text keys must not collapse into one bucket mod small n
        for parts in (2, 3, 4, 5):
            buckets = {stable_hash(f"c{i}") % parts for i in range(64)}
            assert buckets == set(range(parts))


class TestPartitionSpec:
    def test_hash_count_bounds(self):
        with pytest.raises(CatalogError):
            PartitionSpec("hash", "k", count=1)
        with pytest.raises(CatalogError):
            PartitionSpec("hash", "k", count=65)
        assert PartitionSpec("hash", "k", count=2).n_partitions == 2

    def test_range_bounds_must_ascend(self):
        with pytest.raises(CatalogError):
            PartitionSpec("range", "k", bounds=(10, 10))
        with pytest.raises(CatalogError):
            PartitionSpec("range", "k", bounds=(10, 5))
        with pytest.raises(CatalogError):
            PartitionSpec("range", "k", bounds=())

    def test_range_routing(self):
        spec = PartitionSpec("range", "k", bounds=(10, 20))
        assert spec.n_partitions == 3
        assert spec.partition_of(-5) == 0
        assert spec.partition_of(10) == 1  # bound belongs to the right side
        assert spec.partition_of(15) == 1
        assert spec.partition_of(99) == 2
        assert spec.partition_of(None) == 0  # NULL sorts below everything

    def test_catalog_round_trip(self):
        for spec in (PartitionSpec("hash", "id", count=4),
                     PartitionSpec("range", "id", bounds=(100, 200, 300))):
            assert PartitionSpec.from_dict(spec.to_dict()) == spec


class TestPartitionedHeap:
    def _heap(self):
        spec = PartitionSpec("range", "k", bounds=(100,))
        return PartitionedHeap(spec, 0, [dict(), dict()])

    def test_routes_rows_to_buckets(self):
        heap = self._heap()
        heap[1] = [50, "low"]
        heap[2] = [500, "high"]
        assert heap.buckets[0] == {1: [50, "low"]}
        assert heap.buckets[1] == {2: [500, "high"]}
        assert heap.partition_of_rowid(1) == 0 and heap.partition_of_rowid(2) == 1

    def test_update_moves_row_across_partitions(self):
        heap = self._heap()
        heap[1] = [50, "x"]
        heap[1] = [500, "x"]  # key change re-routes the row
        assert 1 not in heap.buckets[0] and heap.buckets[1][1] == [500, "x"]
        assert heap[1] == [500, "x"] and len(heap) == 1

    def test_mapping_protocol(self):
        heap = self._heap()
        heap[1], heap[2] = [50, "a"], [500, "b"]
        assert 1 in heap and 3 not in heap
        assert heap.get(3, "dflt") == "dflt"
        assert heap.pop(1) == [50, "a"]
        with pytest.raises(KeyError):
            heap.pop(1)
        assert heap.pop(1, None) is None
        del heap[2]
        assert len(heap) == 0

    def test_iteration_is_partition_major(self):
        heap = self._heap()
        heap[1], heap[2], heap[3] = [500, "p1"], [50, "p0"], [75, "p0"]
        assert list(heap.keys()) == [2, 3, 1]
        assert tuple(heap.buckets[0]) == (2, 3)
        assert [rowids for rowids, _rows in heap.iter_chunks(10)] == [(2, 3), (1,)]


class TestMergingIterator:
    def test_merges_sorted_streams(self):
        a, b = [(1, "a1"), (4, "a4")], [(2, "b2"), (3, "b3")]
        assert list(MergingIterator([a, b])) == [
            (1, "a1"), (2, "b2"), (3, "b3"), (4, "a4")]

    def test_ties_break_by_stream_position(self):
        a, b = [(1, "first")], [(1, "second")]
        assert [p for _k, p in MergingIterator([a, b])] == ["first", "second"]

    def test_reverse_merges_descending(self):
        a, b = [(4, "a"), (1, "a")], [(3, "b")]
        assert [k for k, _p in MergingIterator([a, b], reverse=True)] == [4, 3, 1]

    def test_merged_groups_fuses_equal_keys(self):
        a, b = [(1, (10,)), (2, (20,))], [(1, (11,))]
        assert list(MergingIterator.merged_groups([a, b])) == [
            (1, (10, 11)), (2, (20,))]


# ---------------------------------------------------------------------------
# SQL-level fixtures
# ---------------------------------------------------------------------------


def _table(db, rows, clause=""):
    db.execute(f"CREATE TABLE m (id INTEGER, cat TEXT, val REAL) {clause}")
    db.insert_rows("m", rows)
    return db


def _rows():
    return [(i, f"c{i % 7}", (i % 97) * 0.5) for i in range(1500)]


def _fill(db):
    return _table(db, _rows(), "PARTITION BY HASH (id) PARTITIONS 4")


PARITY_QUERIES = (
    "SELECT cat, COUNT(*), SUM(val), MIN(val), MAX(val), AVG(val) "
    "FROM m GROUP BY cat",
    "SELECT COUNT(*), SUM(val) FROM m WHERE id % 3 = 0",
    "SELECT id, val FROM m WHERE val >= 24.0 ORDER BY val, id LIMIT 40",
    "SELECT id FROM m WHERE cat = 'c3' AND val < 30.0",
    "SELECT cat, val FROM m ORDER BY cat DESC, val DESC, id LIMIT 25",
)


def _run_all(executor):
    return [executor.execute(sql).rows for sql in PARITY_QUERIES]


def _multiset(rows):
    return sorted(map(repr, rows))


def _content(results):
    """Order-insensitive view of ``_run_all`` output."""
    return [_multiset(rows) for rows in results]


def _assert_parity(got, want):
    """Order-exact where ORDER BY pins the order, multiset otherwise."""
    for sql, got_rows, want_rows in zip(PARITY_QUERIES, got, want):
        if "ORDER BY" in sql:
            assert got_rows == want_rows, sql
        else:
            assert _multiset(got_rows) == _multiset(want_rows), sql


_REMOVED_NODES = ("ParallelScan", "PartialAggregate", "Gather", "FinalAggregate")


def test_parallel_mode_is_gone():
    """The parallel executor was taken out: its knob is an unknown option
    and an unknown pragma, and partitioned plans use the ordinary nodes."""
    with pytest.raises(DatabaseError, match="unknown open option"):
        Database(parallel=4)
    with pytest.raises(DatabaseError, match="unknown open option"):
        connect(":memory:", parallel=4)
    db = _fill(Database())
    with pytest.raises(DatabaseError, match="unknown pragma"):
        db.pragma("parallel")
    for sql in ("SELECT cat, SUM(val) FROM m GROUP BY cat",
                "SELECT id, val FROM m ORDER BY val, id"):
        for mode in ("EXPLAIN", "EXPLAIN ANALYZE"):
            plan = "\n".join(r[0] for r in db.execute(f"{mode} {sql}").rows)
            assert not any(name in plan for name in _REMOVED_NODES), plan


# ---------------------------------------------------------------------------
# partitioned-vs-plain parity
# ---------------------------------------------------------------------------


@st.composite
def _dataset(draw):
    n = draw(st.integers(40, 160))
    rows = []
    for i in range(n):
        cat = draw(st.sampled_from(["a", "b", "c", None]))
        # dyadic values keep reordered float sums exact
        val = draw(st.one_of(st.none(),
                             st.integers(-40, 40).map(lambda k: k * 0.5)))
        rows.append((i, cat, val))
    return rows


_PARTITION_CLAUSES = (
    "PARTITION BY HASH (id) PARTITIONS 2",
    "PARTITION BY HASH (cat) PARTITIONS 4",
    "PARTITION BY RANGE (id) SPLIT AT (30, 90)",
)


@settings(max_examples=25, deadline=None)
@given(_dataset(), st.sampled_from(_PARTITION_CLAUSES))
def test_property_partitioned_matches_plain(rows, clause):
    """A partitioned table answers exactly what a plain one does."""
    partitioned = _table(Database(), rows, clause)
    plain = _table(Database(), rows)
    _assert_parity(_run_all(partitioned), _run_all(plain))


def test_reopened_file_routes_and_scans_identically(tmp_path):
    """Durable mode: paged buckets match a plain table, and a reopened
    file holds every row in the bucket the writer routed it to."""
    path = tmp_path / "part.db"
    rows = [(i, f"c{i % 5}", (i % 31) * 0.5) for i in range(1000)]
    db = _table(Database(path), rows,
                "PARTITION BY RANGE (id) SPLIT AT (300, 700)")
    written = _run_all(db)
    _assert_parity(written, _run_all(_table(Database(), rows)))
    db.close()

    reopened = Database(path)
    assert _run_all(reopened) == written
    heap = reopened.tables["m"].rows
    assert [len(bucket) for bucket in heap.buckets] == [300, 400, 300]
    reopened.execute("INSERT INTO m VALUES (650, 'c0', 1.5)")
    new_rowid = reopened.execute(
        "SELECT rowid FROM m WHERE id = 650 AND val = 1.5").scalar()
    assert heap.partition_of_rowid(new_rowid) == 1
    reopened.close()


# ---------------------------------------------------------------------------
# MVCC over a partitioned table
# ---------------------------------------------------------------------------


_WRITES = (
    "UPDATE m SET val = val + 1000 WHERE id % 3 = 0",
    "DELETE FROM m WHERE id % 7 = 0",
    "INSERT INTO m VALUES (9001, 'c1', 4.5)",
)


class TestPartitionedSnapshot:
    def test_snapshot_is_unchanged_by_concurrent_writes(self):
        db = _fill(Database())
        plain = _table(Database(), _rows())
        reader, writer = db.connect(), db.connect()
        plain_reader = plain.connect()
        reader.execute("BEGIN")
        plain_reader.execute("BEGIN")
        before = _run_all(reader)
        # autocommitting writes land *after* the readers' snapshots
        for sql in _WRITES:
            writer.execute(sql)
            plain.execute(sql)
        # rows that concurrent deletes push onto the version-chain tail of
        # ``snapshot_scan`` legitimately reorder unordered output, so the
        # cross-time comparison goes by content
        during = _run_all(reader)
        assert _content(during) == _content(before)
        _assert_parity(during, _run_all(plain_reader))
        reader.commit()
        plain_reader.commit()
        # post-commit the reader sees the writer's world
        after = _run_all(reader)
        assert _content(after) != _content(before)
        _assert_parity(after, _run_all(plain_reader))
        for connection in (reader, writer, plain_reader):
            connection.close()

    def test_uncommitted_delete_is_invisible_to_another_session(self):
        db = _fill(Database())
        writer = db.connect()
        writer.execute("BEGIN")
        writer.execute("DELETE FROM m WHERE id >= 750")
        assert db.execute("SELECT COUNT(*) FROM m").scalar() == 1500
        writer.rollback()
        writer.close()
