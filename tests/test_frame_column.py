"""Unit and property tests for Column."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ColumnTypeError, LengthMismatchError
from repro.frame import Column, dtypes

# one builder per kind of concat operand: every dtype with values, every
# dtype all-missing or empty, and the odd columns set_at/mask_filter leave
CONCAT_SIDES = {
    "int": lambda: Column("a", [1, None, 3]),
    "float": lambda: Column("a", [1.5, None, 2.0]),
    "bool": lambda: Column("a", [True, None, False]),
    "string": lambda: Column("a", ["x", None, "y"]),
    "mixed": lambda: Column("a", [1, "12k", None]),
    "mixed_of_ints": lambda: Column("a", [1, 2], dtype=dtypes.MIXED),
    "int_filtered": lambda: Column("a", [1, None, 3, 4]).mask_filter(
        np.array([True, True, False, True])),
    "int_widened": lambda: Column("a", [1, 2]).set_at([0], 2.5),
    "float_nan_written": lambda: Column("a", [1.0, 2.0]).set_at([0], float("nan")),
    "float_only_nan": lambda: Column("a", [1.0]).set_at([0], float("nan")),
    "int_all_missing": lambda: Column("a", [1, 2]).set_at([0, 1], None),
    "bool_all_missing": lambda: Column("a", [True]).set_at([0], None),
    "string_all_missing": lambda: Column("a", ["x", "y"]).set_at([0, 1], None),
    "mixed_all_missing": lambda: Column("a", [1, "x"]).set_at([0, 1], None),
    "string_empty": lambda: Column("a", ["x"]).mask_filter(np.array([False])),
    "float_empty": lambda: Column("a", []),
}


class TestConstruction:
    def test_infers_dtype(self):
        assert Column("a", [1, 2]).dtype == dtypes.INT64
        assert Column("a", ["x"]).dtype == dtypes.STRING
        assert Column("a", [1, "12k"]).dtype == dtypes.MIXED

    def test_explicit_dtype(self):
        col = Column("a", [1, 2], dtype=dtypes.FLOAT64)
        assert col.dtype == dtypes.FLOAT64
        assert col[0] == 1.0

    def test_missing_values(self):
        col = Column("a", [1, None, 3])
        assert col.n_missing == 1
        assert col[1] is None
        assert list(col.missing_positions()) == [1]

    def test_nan_is_missing(self):
        col = Column("a", [1.0, float("nan")])
        assert col.n_missing == 1

    def test_python_values_out(self):
        col = Column("a", [1, 2])
        assert isinstance(col[0], int) and not isinstance(col[0], np.integer)


class TestAccess:
    def test_iteration_matches_getitem(self):
        col = Column("a", [1, None, 3])
        assert list(col) == [col[i] for i in range(3)]

    def test_to_list(self):
        assert Column("a", ["x", None]).to_list() == ["x", None]

    def test_equals(self):
        assert Column("a", [1, None]).equals(Column("a", [1, None]))
        assert not Column("a", [1, 2]).equals(Column("a", [1, 3]))
        assert not Column("a", [1]).equals(Column("a", [1, 1]))
        assert not Column("a", [1, None]).equals(Column("a", [None, 1]))


class TestTransforms:
    def test_take(self):
        col = Column("a", [10, 20, 30]).take([2, 0])
        assert col.to_list() == [30, 10]

    def test_mask_filter(self):
        col = Column("a", [10, 20, 30]).mask_filter(np.array([True, False, True]))
        assert col.to_list() == [10, 30]

    def test_mask_filter_length_check(self):
        with pytest.raises(LengthMismatchError):
            Column("a", [1, 2]).mask_filter(np.array([True]))

    def test_set_at_scalar(self):
        col = Column("a", [1, 2, 3]).set_at([0, 2], 9)
        assert col.to_list() == [9, 2, 9]

    def test_set_at_is_copy(self):
        original = Column("a", [1, 2, 3])
        original.set_at([0], 9)
        assert original.to_list() == [1, 2, 3]

    def test_set_at_sequence(self):
        col = Column("a", [1, 2, 3]).set_at([0, 1], [7, 8])
        assert col.to_list() == [7, 8, 3]

    def test_set_at_none_marks_missing(self):
        col = Column("a", [1, 2]).set_at([0], None)
        assert col[0] is None and col.n_missing == 1

    def test_set_at_widens_int_to_float(self):
        col = Column("a", [1, 2]).set_at([0], 1.5)
        assert col.dtype == dtypes.FLOAT64
        assert col.to_list() == [1.5, 2.0]

    def test_set_at_widens_to_mixed(self):
        col = Column("a", [1, 2]).set_at([0], "12k")
        assert col.dtype == dtypes.MIXED
        assert col.to_list() == ["12k", 2]

    def test_set_at_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            Column("a", [1, 2]).set_at([0, 1], [1])

    def test_fill_missing(self):
        col = Column("a", [1, None, None]).fill_missing(0)
        assert col.to_list() == [1, 0, 0]

    def test_astype_numeric_to_string(self):
        col = Column("a", [1, None]).astype(dtypes.STRING)
        assert col.to_list() == ["1", None]

    def test_astype_mixed_to_float_strict(self):
        col = Column("a", [1, "12k", "7"]).astype(dtypes.FLOAT64)
        # "12k" is not a strict literal -> missing; "7" parses
        assert col.to_list() == [1.0, None, 7.0]

    def test_concat(self):
        col = Column("a", [1]).concat(Column("a", [2, None]))
        assert col.to_list() == [1, 2, None]

    @pytest.mark.parametrize("right", sorted(CONCAT_SIDES))
    @pytest.mark.parametrize("left", sorted(CONCAT_SIDES))
    def test_concat_equals_reinference(self, left, right):
        # the fast path must be indistinguishable from re-inferring the cells
        a, b = CONCAT_SIDES[left](), CONCAT_SIDES[right]()
        got = a.concat(b)
        want = Column("a", a.to_list() + b.to_list())
        assert got.dtype == want.dtype
        assert list(got.valid_mask) == list(want.valid_mask)
        assert [(v, type(v)) for v in got] == [(v, type(v)) for v in want]
        assert ([repr(v) for v in got._data[got.missing_mask]]
                == [repr(v) for v in want._data[want.missing_mask]])

    def test_rename_shares_data(self):
        col = Column("a", [1, 2])
        renamed = col.rename("b")
        assert renamed.name == "b" and renamed.to_list() == [1, 2]


class TestNumericView:
    def test_numeric_column(self):
        values, ok, mismatch = Column("a", [1, None, 3]).to_numeric()
        assert list(values[ok]) == [1.0, 3.0]
        assert not mismatch.any()

    def test_mixed_column_strict(self):
        values, ok, mismatch = Column("a", [50000, "12k", None]).to_numeric()
        assert list(ok) == [True, False, False]
        assert list(mismatch) == [False, True, False]

    def test_mixed_column_lenient(self):
        values, ok, mismatch = Column("a", [50000, "12k"]).to_numeric(lenient=True)
        assert list(ok) == [True, True]
        assert values[1] == 12000.0
        assert not mismatch.any()

    def test_bool_column(self):
        values, ok, _ = Column("a", [True, False]).to_numeric()
        assert list(values) == [1.0, 0.0]


class TestStatistics:
    def test_basic_stats(self):
        col = Column("a", [2.0, 4.0, None])
        assert col.mean() == 3.0
        assert col.min() == 2.0
        assert col.max() == 4.0
        assert col.median() == 3.0
        assert col.sum() == 6.0
        assert col.std() == pytest.approx(1.0)

    def test_stats_on_all_missing(self):
        assert Column("a", [None, None]).mean() is None

    def test_string_stat_raises(self):
        with pytest.raises(ColumnTypeError):
            Column("a", ["x"]).mean()

    def test_unique_preserves_order(self):
        assert Column("a", ["b", "a", "b", None]).unique() == ["b", "a"]

    def test_value_counts(self):
        assert Column("a", ["x", "x", "y", None]).value_counts() == [("x", 2), ("y", 1)]

    def test_mode(self):
        assert Column("a", ["x", "y", "x"]).mode() == "x"
        assert Column("a", [None]).mode() is None

    def test_mixed_scalars_count_by_hashing(self):
        col = Column("a", [1, "1", "a", "1", None, 1.0, True, float("nan")])
        assert col.dtype == dtypes.MIXED
        assert col.unique() == [1, "1", "a"]
        assert col.value_counts() == [(1, 3), ("1", 2), ("a", 1)]
        assert col.mode() == 1


class TestValueDomain:
    @pytest.mark.parametrize("cell", [[2], {"k": 1}, (1, 2), b"x", object()],
                             ids=["list", "dict", "tuple", "bytes", "object"])
    @pytest.mark.parametrize("dtype", [None, dtypes.MIXED, dtypes.STRING])
    def test_construction_refuses_non_scalars(self, cell, dtype):
        with pytest.raises(ColumnTypeError, match="column 'a'"):
            Column("a", [1, "x", cell, None], dtype=dtype)

    @pytest.mark.parametrize("cell", [[2], {"k": 1}, object()], ids=["list", "dict", "object"])
    def test_set_at_refuses_non_scalars(self, cell):
        col = Column("a", [1, "x", None])
        with pytest.raises(ColumnTypeError, match="column 'a'"):
            col.set_at([0], [cell])
        with pytest.raises(ColumnTypeError, match="column 'a'"):
            col.set_at([0, 2], cell if isinstance(cell, dict) else [cell, 1])

    def test_numpy_scalars_become_python_values_in_object_columns(self):
        col = Column("a", [np.int64(3), "x", np.float64(2.5), np.bool_(True)])
        assert col.dtype == dtypes.MIXED
        assert [type(v) for v in col.to_list()] == [int, str, float, bool]
        written = col.set_at([1], np.int64(4))
        assert type(written[1]) is int


@given(st.lists(st.one_of(st.none(), st.integers(-1000, 1000)), max_size=50))
def test_property_roundtrip_values(values):
    """Values in == values out, missing pattern preserved."""
    col = Column("a", values)
    assert col.to_list() == values


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=30), st.data())
def test_property_take_matches_python_indexing(values, data):
    col = Column("a", values)
    indices = data.draw(st.lists(st.integers(0, len(values) - 1), max_size=20))
    assert col.take(indices).to_list() == [values[i] for i in indices]
