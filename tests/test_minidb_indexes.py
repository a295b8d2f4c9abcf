"""Unit tests for hash and B+tree index wrappers."""

import pytest

from repro.errors import IntegrityError
from repro.minidb.hash_index import BTreeIndex, HashIndex, normalize_key


def walk(index: BTreeIndex, bounds, reverse: bool = False) -> list:
    """Rowids of a live group walk between ``bounds``, in walk order."""
    if bounds is None:
        return []
    return [rowid for _key, rowids in index.group_walk(bounds, reverse=reverse)
            for rowid in rowids]


class TestNormalizeKey:
    def test_int_float_equivalence(self):
        assert normalize_key(1) == normalize_key(1.0)

    def test_bool_as_number(self):
        assert normalize_key(True) == normalize_key(1)

    def test_text_untouched(self):
        assert normalize_key("x") == "x"


class TestHashIndex:
    def test_insert_lookup_remove(self):
        index = HashIndex("i", "c", 0)
        index.insert("a", 1)
        index.insert("a", 2)
        index.insert("b", 3)
        assert index.lookup("a") == {1, 2}
        index.remove("a", 1)
        assert index.lookup("a") == {2}
        index.remove("a", 2)
        assert index.lookup("a") == set()
        assert index.n_keys == 1

    def test_nulls_not_indexed(self):
        index = HashIndex("i", "c", 0)
        index.insert(None, 1)
        assert len(index) == 0
        assert index.lookup(None) == set()

    def test_numeric_equivalence(self):
        index = HashIndex("i", "c", 0)
        index.insert(1, 10)
        assert index.lookup(1.0) == {10}

    def test_unique_violation(self):
        index = HashIndex("i", "c", 0, unique=True)
        index.insert("a", 1)
        with pytest.raises(IntegrityError):
            index.insert("a", 2)

    def test_remove_absent_is_noop(self):
        index = HashIndex("i", "c", 0)
        index.remove("zzz", 1)  # no error


class TestBTreeIndex:
    def test_lookup(self):
        index = BTreeIndex("i", "c", 0)
        index.insert(5.0, 1)
        index.insert(5, 2)
        assert index.lookup(5) == {1, 2}

    def test_range_mixed_types(self):
        """Numbers sort before text: an unbounded-high scan reaches text."""
        index = BTreeIndex("i", "c", 0)
        index.insert(10, 1)
        index.insert(20, 2)
        index.insert("12k", 3)
        assert set(walk(index, index.range_bounds(15, None))) == {2, 3}
        assert set(walk(index, index.range_bounds(None, 15))) == {1}

    def test_nulls_are_indexed_and_tracked(self):
        """NULL-aware keys: NULL rows live in the tree (sorted first) and
        their rowids are tracked for IS NULL lookups."""
        index = BTreeIndex("i", "c", 0)
        index.insert(None, 1)
        index.insert(5, 2)
        assert len(index) == 2
        assert index.null_rowids == {1}
        assert index.lookup_null() == {1}
        assert walk(index, index.order_bounds()) == [1, 2]  # NULL sorts first
        assert walk(index, index.order_bounds(), reverse=True) == [2, 1]
        index.remove(None, 1)
        assert index.null_rowids == set()

    def test_null_never_matches_equality_or_range(self):
        index = BTreeIndex("i", "c", 0)
        index.insert(None, 1)
        index.insert(3, 2)
        assert index.lookup(None) == set()
        assert set(walk(index, index.range_bounds(None, None))) == {2}  # unbounded skips NULLs
        assert set(walk(index, index.range_bounds(None, 10))) == {2}

    def test_unique_violation(self):
        index = BTreeIndex("i", "c", 0, unique=True)
        index.insert(1, 1)
        with pytest.raises(IntegrityError):
            index.insert(1.0, 2)

    def test_unique_allows_multiple_nulls(self):
        index = BTreeIndex("i", "c", 0, unique=True)
        index.insert(None, 1)
        index.insert(None, 2)  # SQL: NULLs never collide under UNIQUE
        assert index.null_rowids == {1, 2}


class TestCompositeBTreeIndex:
    def _index(self) -> BTreeIndex:
        index = BTreeIndex("i", ("cat", "val"), (0, 1))
        rows = [
            (1, ["a", 3.0]),
            (2, ["a", 1.0]),
            (3, ["b", 2.0]),
            (4, ["a", None]),
            (5, [None, 9.0]),
            (6, ["a", "12k"]),  # text contamination sorts above numbers
        ]
        for rowid, row in rows:
            index.add_row(row, rowid)
        return index

    def test_prefix_scan_orders_by_suffix(self):
        index = self._index()
        # NULL val first, then numbers ascending, then text
        assert walk(index, index.prefix_bounds(("a",))) == [4, 2, 1, 6]

    def test_prefix_scan_reverse(self):
        index = self._index()
        assert walk(index, index.prefix_bounds(("a",)), reverse=True) == [6, 1, 2, 4]

    def test_full_key_lookup(self):
        index = self._index()
        assert index.lookup_values(("a", 1)) == {2}
        assert index.lookup_values(("a", 1.0)) == {2}
        assert index.lookup_values(("zzz", 1)) == set()

    def test_null_prefix_matches_nothing(self):
        index = self._index()
        assert walk(index, index.prefix_bounds((None,))) == []
        assert index.lookup_values((None, 9.0)) == set()

    def test_null_rowids_track_any_component(self):
        index = self._index()
        assert index.null_rowids == {4, 5}

    def test_ordered_rowids_full_walk(self):
        index = self._index()
        # (NULL, 9) < (a, NULL) < (a, 1) < (a, 3) < (a, '12k') < (b, 2)
        assert walk(index, index.order_bounds()) == [5, 4, 2, 1, 6, 3]
        assert walk(index, index.order_bounds(), reverse=True) == [3, 6, 1, 2, 4, 5]

    def test_remove_row_keeps_tracking_consistent(self):
        index = self._index()
        index.remove_row(["a", None], 4)
        index.remove_row([None, 9.0], 5)
        assert index.null_rowids == set()
        assert walk(index, index.prefix_bounds(("a",))) == [2, 1, 6]

    def test_unique_composite(self):
        index = BTreeIndex("i", ("a", "b"), (0, 1), unique=True)
        index.add_row([1, 2], 1)
        with pytest.raises(IntegrityError):
            index.add_row([1.0, 2.0], 2)
        index.add_row([1, None], 3)  # NULL component: no collision
        index.add_row([1, None], 4)

    def test_single_column_helpers_rejected(self):
        index = BTreeIndex("i", ("a", "b"), (0, 1))
        with pytest.raises(ValueError):
            index.range_bounds(1, 2)
        with pytest.raises(ValueError):
            index.numeric_min()


class TestCompositeHashIndex:
    def test_tuple_keys(self):
        index = HashIndex("i", ("a", "b"), (0, 1))
        index.add_row(["x", 1], 1)
        index.add_row(["x", 2], 2)
        index.add_row(["x", None], 3)  # NULL component skipped entirely
        assert index.lookup_values(("x", 1)) == {1}
        assert index.lookup_values(("x", 1.0)) == {1}
        assert index.lookup_values(("x", None)) == set()
        assert len(index) == 2
        index.remove_row(["x", 1], 1)
        assert index.lookup_values(("x", 1)) == set()
