"""Unit tests for dtype inference and validation."""

import numpy as np
import pytest

from repro.errors import ColumnTypeError
from repro.frame import dtypes


class TestInferDtype:
    def test_integers(self):
        assert dtypes.infer_dtype([1, 2, 3]) == dtypes.INT64

    def test_integers_with_missing(self):
        assert dtypes.infer_dtype([1, None, 3]) == dtypes.INT64

    def test_floats(self):
        assert dtypes.infer_dtype([1.5, 2.0]) == dtypes.FLOAT64

    def test_int_float_mix_is_float(self):
        assert dtypes.infer_dtype([1, 2.5]) == dtypes.FLOAT64

    def test_strings(self):
        assert dtypes.infer_dtype(["a", "b"]) == dtypes.STRING

    def test_bools(self):
        assert dtypes.infer_dtype([True, False]) == dtypes.BOOL

    def test_numbers_and_strings_are_mixed(self):
        assert dtypes.infer_dtype([1, "12k"]) == dtypes.MIXED

    def test_bool_and_int_are_mixed(self):
        assert dtypes.infer_dtype([True, 2]) == dtypes.MIXED

    def test_all_missing_defaults_to_float(self):
        assert dtypes.infer_dtype([None, None]) == dtypes.FLOAT64

    def test_nan_counts_as_missing(self):
        assert dtypes.infer_dtype([float("nan"), 1]) == dtypes.INT64

    def test_numpy_scalars(self):
        assert dtypes.infer_dtype([np.int64(5), np.int64(6)]) == dtypes.INT64
        assert dtypes.infer_dtype([np.float64(5.5)]) == dtypes.FLOAT64

    @pytest.mark.parametrize("cell", [object(), [2], {"k": 1}, b"x", (1,)],
                             ids=["object", "list", "dict", "bytes", "tuple"])
    def test_other_objects_are_refused(self, cell):
        with pytest.raises(ColumnTypeError, match=type(cell).__name__):
            dtypes.infer_dtype([1, cell])


class TestValidation:
    def test_validate_accepts_all_known(self):
        for dtype in dtypes.ALL_DTYPES:
            assert dtypes.validate_dtype(dtype) == dtype

    def test_validate_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown dtype"):
            dtypes.validate_dtype("decimal")

    def test_storage_dtype_rejects_unknown(self):
        with pytest.raises(ValueError):
            dtypes.storage_dtype("decimal")

    def test_is_numeric(self):
        assert dtypes.is_numeric_dtype(dtypes.INT64)
        assert dtypes.is_numeric_dtype(dtypes.FLOAT64)
        assert not dtypes.is_numeric_dtype(dtypes.STRING)
        assert not dtypes.is_numeric_dtype(dtypes.MIXED)
