"""Differential tests: the whole-column numpy kernels of ``repro.frame``
against per-cell reference implementations of the same rules.

The ``_ref_*`` functions below are the per-cell loops the kernels replaced
(dtype inference, storage build, the numeric view).  They live only here, as
the oracle: for every list of cells and every dtype, the kernels must give
the same dtype, the same storage and validity, the same
``(values, ok, mismatch)`` and the same exceptions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frame import dtypes
from repro.frame.column import Column, _strict_number
from repro.frame.parsing import coerce_to_number


# -- reference implementations (per cell) --------------------------------------

def _ref_is_nan(value) -> bool:
    return isinstance(value, (float, np.floating)) and value != value


def _ref_infer_dtype(values) -> str:
    saw_int = saw_float = saw_bool = saw_str = False
    saw_any = False
    for value in values:
        if value is None or _ref_is_nan(value):
            continue
        saw_any = True
        if isinstance(value, bool) or isinstance(value, np.bool_):
            saw_bool = True
        elif isinstance(value, (int, np.integer)):
            saw_int = True
        elif isinstance(value, (float, np.floating)):
            saw_float = True
        else:
            saw_str = True
    if not saw_any:
        return dtypes.FLOAT64
    kinds = sum([saw_bool, saw_int or saw_float, saw_str])
    if kinds > 1:
        return dtypes.MIXED
    if saw_str:
        return dtypes.STRING
    if saw_bool:
        return dtypes.BOOL
    if saw_float:
        return dtypes.FLOAT64
    return dtypes.INT64


_REF_FILL = {
    dtypes.INT64: 0,
    dtypes.FLOAT64: float("nan"),
    dtypes.BOOL: False,
}


def _ref_build_storage(values, dtype: str):
    storage = dtypes.storage_dtype(dtype)
    n = len(values)
    valid = np.ones(n, dtype=bool)
    if storage is object:
        data = np.empty(n, dtype=object)
        for i, value in enumerate(values):
            if value is None or _ref_is_nan(value):
                valid[i] = False
                data[i] = None
            elif dtype == dtypes.STRING:
                data[i] = value if isinstance(value, str) else str(value)
            else:
                data[i] = value.item() if isinstance(value, np.generic) else value
        return data, valid
    data = np.zeros(n, dtype=storage)
    fill = _REF_FILL[dtype]
    for i, value in enumerate(values):
        if value is None or _ref_is_nan(value):
            valid[i] = False
            data[i] = fill
        else:
            data[i] = value
    return data, valid


def _ref_to_numeric(column: Column, lenient: bool = False):
    data, valid = column._data, column._valid
    n = len(data)
    values = np.full(n, np.nan, dtype=np.float64)
    ok = np.zeros(n, dtype=bool)
    if column.dtype in (dtypes.INT64, dtypes.FLOAT64, dtypes.BOOL):
        values[valid] = data[valid].astype(np.float64)
        ok = valid.copy()
    else:
        for i in range(n):
            if not valid[i]:
                continue
            number = coerce_to_number(data[i]) if lenient else _strict_number(data[i])
            if number is not None:
                values[i] = number
                ok[i] = True
    return values, ok, valid & ~ok


# -- strategies ---------------------------------------------------------------

_EDGE_INTS = [2 ** 63 - 1, 2 ** 63, -(2 ** 63), -(2 ** 63) - 1, 2 ** 64, 10 ** 400]

cells = st.one_of(
    st.none(),
    st.just(float("nan")),
    st.just(np.float64("nan")),
    st.sampled_from([float("inf"), float("-inf"), -0.0]),
    st.booleans(),
    st.builds(np.bool_, st.booleans()),
    st.builds(np.int64, st.integers(-(2 ** 63), 2 ** 63 - 1)),
    st.builds(np.float64, st.floats(allow_nan=False)),
    st.integers(-1000, 1000),
    st.integers(-(2 ** 65), 2 ** 65),
    st.sampled_from(_EDGE_INTS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([" 12 ", "1e5", "12k", "-3.5", "nan", "", "abc", "True", "$1,200"]),
    st.text(max_size=4),
)

# lists whose cells mostly share one kind, so typed columns come up often
# next to the fully mixed ones
typed_lists = st.one_of(
    st.lists(cells, max_size=12),
    st.lists(st.one_of(st.none(), st.integers(-(2 ** 63), 2 ** 63 - 1)), max_size=12),
    st.lists(st.one_of(st.none(), st.just(float("nan")), st.floats()), max_size=12),
    st.lists(st.one_of(st.none(), st.text(max_size=3)), max_size=12),
    st.lists(st.one_of(st.none(), st.booleans(), st.builds(np.bool_, st.booleans())), max_size=12),
    st.lists(st.one_of(st.integers(-5, 5), st.floats(), st.sampled_from(["12k", " 7 "])), max_size=12),
)


# -- helpers -------------------------------------------------------------------

def _outcome(fn, *args):
    """``("ok", result)`` or ``("raises", exception type)``."""
    try:
        return "ok", fn(*args)
    except (ValueError, TypeError, OverflowError) as exc:
        return "raises", type(exc)


def _same_cell(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if _ref_is_nan(a):
        return _ref_is_nan(b)
    return bool(a == b)


def _assert_same_storage(data, valid, ref_data, ref_valid):
    assert data.dtype == ref_data.dtype
    assert np.array_equal(valid, ref_valid)
    if data.dtype == object:
        assert all(_same_cell(a, b) for a, b in zip(data.tolist(), ref_data.tolist()))
    elif data.dtype == np.float64:
        assert np.array_equal(data, ref_data, equal_nan=True)
        assert np.array_equal(np.signbit(data), np.signbit(ref_data))
    else:
        assert np.array_equal(data, ref_data)


def _assert_same_numeric(column: Column, lenient: bool):
    got = _outcome(column.to_numeric, lenient)
    want = _outcome(_ref_to_numeric, column, lenient)
    assert got[0] == want[0]
    if got[0] == "raises":
        assert got[1] is want[1]
        return
    for mine, ref in zip(got[1], want[1]):
        assert mine.dtype == ref.dtype
        assert np.array_equal(mine, ref, equal_nan=True)


def _built(values, dtype):
    return Column("c", values, dtype=dtype)


# -- the differential ----------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(typed_lists)
def test_infer_dtype_matches_reference(values):
    assert dtypes.infer_dtype(values) == _ref_infer_dtype(values)
    assert dtypes.infer_dtype(iter(values)) == _ref_infer_dtype(values)


@settings(max_examples=300, deadline=None)
@given(typed_lists, st.sampled_from((None,) + dtypes.ALL_DTYPES))
def test_storage_and_numeric_view_match_reference(values, dtype):
    ref_dtype = dtype or _ref_infer_dtype(values)
    got = _outcome(_built, values, dtype)
    want = _outcome(_ref_build_storage, values, ref_dtype)
    assert got[0] == want[0], (got, want)
    if got[0] == "raises":
        assert got[1] is want[1]
        return
    column = got[1]
    assert column.dtype == ref_dtype
    _assert_same_storage(column._data, column._valid, *want[1])
    _assert_same_numeric(column, lenient=False)
    _assert_same_numeric(column, lenient=True)


@settings(max_examples=150, deadline=None)
@given(st.lists(cells, min_size=1, max_size=10), st.data())
def test_numeric_view_of_written_cells_matches_reference(values, data):
    """``set_at`` can leave a present NaN (or any cell) in a mixed column."""
    column = _outcome(_built, values, dtypes.MIXED)[1]
    positions = data.draw(st.lists(st.integers(0, len(values) - 1), max_size=3))
    written = data.draw(st.lists(cells.filter(lambda v: v is not None),
                                 min_size=len(positions), max_size=len(positions)))
    column = column.set_at(positions, written)
    _assert_same_numeric(column, lenient=False)
    _assert_same_numeric(column, lenient=True)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(), max_size=12))
def test_numeric_array_input_matches_reference(floats):
    array = np.array(floats, dtype=np.float64)
    assert dtypes.infer_dtype(array) == _ref_infer_dtype(array)
    column = Column("c", array)
    _assert_same_storage(column._data, column._valid,
                         *_ref_build_storage(array, _ref_infer_dtype(array)))


@settings(max_examples=200, deadline=None)
@given(typed_lists, typed_lists)
def test_concat_equals_rebuilding_from_values(left, right):
    built = [_outcome(_built, side, None) for side in (left, right)]
    if any(outcome[0] == "raises" for outcome in built):
        return
    a, b = built[0][1], built[1][1]
    joined = a.concat(b)
    rebuilt = Column("c", a.to_list() + b.to_list())
    assert joined.dtype == rebuilt.dtype
    _assert_same_storage(joined._data, joined._valid, rebuilt._data, rebuilt._valid)


def test_huge_ints_still_raise():
    for values in ([1, 2 ** 63], [2 ** 63, None], [-(2 ** 63) - 1]):
        with pytest.raises(OverflowError):
            Column("c", values)
    with pytest.raises(OverflowError):
        Column("c", [10 ** 400], dtype=dtypes.FLOAT64)
    with pytest.raises(OverflowError):
        Column("c", ["x", 10 ** 400]).to_numeric()
