"""Typed, missing-aware column — the unit of storage in :mod:`repro.frame`.

A :class:`Column` pairs a numpy array with a validity mask (Arrow-style):
``valid[i] is False`` means row ``i`` is missing, regardless of what the
storage array holds at that position.  All statistics skip missing values.
"""

from __future__ import annotations

import operator
from collections import Counter
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ColumnTypeError, LengthMismatchError
from repro.frame import dtypes
from repro.frame.parsing import coerce_to_number, parse_number_strict

_FILL = {
    dtypes.INT64: 0,
    dtypes.FLOAT64: float("nan"),
    dtypes.BOOL: False,
    dtypes.STRING: None,
    dtypes.MIXED: None,
}

# cell types whose float value is a plain cast: to_numeric converts them in one
# astype; every other cell (text, bools, numpy scalars, objects) is parsed alone
_PLAIN_NUMBERS = frozenset({int, float})


class Column:
    """An immutable-by-convention named, typed vector with a validity mask.

    Mutating methods (``set_at``, ``fill_missing``) return *new* columns; the
    underlying arrays are never shared with callers after construction.
    """

    __slots__ = ("name", "dtype", "_data", "_valid")

    def __init__(self, name: str, values: Iterable, dtype: str | None = None):
        values = list(values) if not isinstance(values, (list, np.ndarray)) else values
        types, missing = dtypes.scan(values)
        inferred = dtypes.dtype_of(types, name)  # refuses a non-scalar cell
        dtype = inferred if dtype is None else dtypes.validate_dtype(dtype)
        self.name = name
        self.dtype = dtype
        self._data, self._valid = _build_storage(values, dtype, types, missing)

    # -- construction ------------------------------------------------------

    @classmethod
    def _from_storage(cls, name: str, dtype: str, data: np.ndarray, valid: np.ndarray) -> "Column":
        """Internal: wrap pre-built storage arrays without copying."""
        col = object.__new__(cls)
        col.name = name
        col.dtype = dtype
        col._data = data
        col._valid = valid
        return col

    def copy(self, name: str | None = None) -> "Column":
        """Deep copy, optionally renamed."""
        return Column._from_storage(
            name if name is not None else self.name,
            self.dtype,
            self._data.copy(),
            self._valid.copy(),
        )

    def rename(self, name: str) -> "Column":
        """Same data, new name (storage shared — columns are read-only)."""
        return Column._from_storage(name, self.dtype, self._data, self._valid)

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, position: int):
        """Return the Python value at ``position`` (``None`` when missing)."""
        if not self._valid[position]:
            return None
        return _to_python(self._data[position], self.dtype)

    def __iter__(self) -> Iterator:
        return iter(self.to_list())

    def __repr__(self) -> str:
        return f"Column({self.name!r}, dtype={self.dtype}, len={len(self)}, missing={self.n_missing})"

    def to_list(self) -> list:
        """Materialize Python values, with ``None`` for missing cells.

        The whole storage array converts at once (``ndarray.tolist`` gives
        the same Python types ``__getitem__`` does); missing positions are
        then overwritten with ``None``.
        """
        values = self._data.tolist()
        for position in np.flatnonzero(~self._valid).tolist():
            values[position] = None
        return values

    def equals(self, other: "Column") -> bool:
        """Value equality: same length, same missing pattern, same values."""
        if len(self) != len(other):
            return False
        if not np.array_equal(self._valid, other._valid):
            return False
        if self.dtype in dtypes.NUMERIC_DTYPES and other.dtype in dtypes.NUMERIC_DTYPES:
            valid = self._valid
            return bool(np.array_equal(self._data[valid], other._data[valid]))
        for i in range(len(self)):
            if self._valid[i] and self[i] != other[i]:
                return False
        return True

    # -- missingness -------------------------------------------------------

    @property
    def valid_mask(self) -> np.ndarray:
        """Boolean array, ``True`` where a value is present (copy)."""
        return self._valid.copy()

    @property
    def missing_mask(self) -> np.ndarray:
        """Boolean array, ``True`` where the value is missing (copy)."""
        return ~self._valid

    @property
    def n_missing(self) -> int:
        """Number of missing cells."""
        return int((~self._valid).sum())

    @property
    def n_valid(self) -> int:
        """Number of present cells."""
        return int(self._valid.sum())

    def missing_positions(self) -> np.ndarray:
        """Positions (int64 array) of missing cells."""
        return np.flatnonzero(~self._valid)

    # -- transformation ----------------------------------------------------

    def take(self, positions: Sequence[int] | np.ndarray) -> "Column":
        """New column with rows reordered/selected by ``positions``."""
        idx = np.asarray(positions, dtype=np.int64)
        return Column._from_storage(self.name, self.dtype, self._data[idx].copy(), self._valid[idx].copy())

    def mask_filter(self, mask: np.ndarray) -> "Column":
        """New column keeping rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != len(self):
            raise LengthMismatchError(
                f"mask length {len(mask)} != column length {len(self)}"
            )
        return Column._from_storage(self.name, self.dtype, self._data[mask].copy(), self._valid[mask].copy())

    def set_at(self, positions: Sequence[int] | np.ndarray, value) -> "Column":
        """New column with ``value`` written at each of ``positions``.

        ``value`` may be a scalar (broadcast) or a sequence matching
        ``positions``; ``None`` entries mark cells missing.  If the written
        value does not fit the current dtype the column is widened to
        ``mixed``; a value that is not a scalar raises ``ColumnTypeError``.
        """
        idx = np.asarray(positions, dtype=np.int64)
        scalars = [value] * len(idx) if not isinstance(value, (list, tuple, np.ndarray)) else list(value)
        if len(scalars) != len(idx):
            raise LengthMismatchError(
                f"{len(scalars)} values for {len(idx)} positions"
            )
        dtypes.dtype_of(set(map(type, scalars)), self.name)  # refuses a non-scalar
        target_dtype = self.dtype
        for scalar in scalars:
            if scalar is not None and not _fits(scalar, target_dtype):
                target_dtype = _widen(target_dtype, scalar)
        if target_dtype != self.dtype:
            out = self.astype(target_dtype)
            data, valid = out._data, out._valid
        else:
            data, valid = self._data.copy(), self._valid.copy()
        for pos, scalar in zip(idx, scalars):
            if scalar is None:
                valid[pos] = False
                data[pos] = _FILL[target_dtype]
            else:
                valid[pos] = True
                data[pos] = _coerce_scalar(scalar, target_dtype)
        return Column._from_storage(self.name, target_dtype, data, valid)

    def fill_missing(self, value) -> "Column":
        """New column with every missing cell replaced by ``value``."""
        return self.set_at(self.missing_positions(), value)

    def astype(self, dtype: str) -> "Column":
        """New column converted to ``dtype``; unconvertible cells go missing.

        Converting a ``mixed``/``string`` column to ``float64`` uses strict
        numeric parsing — use the type-conversion wrangler for lenient
        repair of spellings like ``"12k"``.
        """
        dtypes.validate_dtype(dtype)
        if dtype == self.dtype:
            return self.copy()
        if self.dtype in dtypes.NUMERIC_DTYPES and dtype in dtypes.NUMERIC_DTYPES:
            data, valid = self._data, self._valid.copy()
            if dtype == dtypes.INT64:  # only integral values convert
                with np.errstate(invalid="ignore"):
                    valid &= (data == np.trunc(data)) & (np.abs(data) < 2.0 ** 63)
            data = np.where(valid, data, _FILL[dtype]).astype(dtypes.storage_dtype(dtype))
            return Column._from_storage(self.name, dtype, data, valid)
        values = []
        for value in self:
            values.append(_convert(value, dtype))
        return Column(self.name, values, dtype=dtype)

    def concat(self, other: "Column") -> "Column":
        """New column with ``other``'s rows appended (dtypes widened).

        Always equal to ``Column(name, self.to_list() + other.to_list())``.
        When inference could only repeat a side's dtype — both sides share a
        non-``mixed`` dtype and hold a value, or one side holds none — the
        storage arrays are joined directly instead of re-inferring.
        """
        mine, theirs = bool(self._valid.any()), bool(other._valid.any())
        if mine and theirs and self.dtype == other.dtype != dtypes.MIXED:
            dtype = self.dtype
        elif mine != theirs and dtypes.MIXED not in (self.dtype, other.dtype):
            dtype = self.dtype if mine else other.dtype
        else:
            return Column(self.name, self.to_list() + other.to_list())
        data = np.concatenate([
            side._data if side.dtype == dtype
            else np.full(len(side), _FILL[dtype], dtype=dtypes.storage_dtype(dtype))
            for side in (self, other)
        ])
        valid = np.concatenate([self._valid, other._valid])
        if dtype == dtypes.FLOAT64:
            valid &= ~np.isnan(data)  # a NaN written by set_at reads back as missing
        return Column._from_storage(self.name, dtype, data, valid)

    # -- numeric views -----------------------------------------------------

    def to_numeric(self, lenient: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Numeric view: ``(values, ok_mask, mismatch_mask)``.

        ``values`` is float64 with NaN where no number is available;
        ``ok_mask`` marks positions holding a usable number; ``mismatch_mask``
        marks *present* cells that could not be interpreted as numbers — the
        raw material of the type-mismatch detector.

        With ``lenient=True``, messy spellings (``"12k"``) parse successfully
        and are therefore not mismatches.
        """
        n = len(self)
        values = np.full(n, np.nan, dtype=np.float64)
        if self.dtype not in (dtypes.MIXED, dtypes.STRING):
            values[self._valid] = self._data[self._valid].astype(np.float64)
            ok = self._valid.copy()
        else:
            cells = self._data
            plain = np.fromiter(map(_PLAIN_NUMBERS.__contains__, map(type, cells)),
                                dtype=bool, count=n)
            values[plain] = cells[plain].astype(np.float64)
            ok = plain & ~np.isnan(values)
            parse = coerce_to_number if lenient else _strict_number
            for i in np.flatnonzero(self._valid & ~plain).tolist():
                number = parse(cells[i])
                if number is not None:
                    values[i] = number
                    ok[i] = True
        mismatch = self._valid & ~ok
        return values, ok, mismatch

    # -- statistics (missing-aware) ------------------------------------------

    def unique(self) -> list:
        """Distinct present values, in first-seen order."""
        return [value for value, _count in self._tally()]

    def value_counts(self) -> list[tuple]:
        """Each distinct present value with its occurrence count, as
        ``(value, count)`` pairs in first-seen order."""
        return self._tally()

    def min(self):
        """Minimum present numeric value (``None`` when none exist)."""
        return self._reduce(np.min)

    def max(self):
        """Maximum present numeric value (``None`` when none exist)."""
        return self._reduce(np.max)

    def mean(self):
        """Mean of present numeric values (``None`` when none exist)."""
        return self._reduce(np.mean)

    def std(self):
        """Population standard deviation of present numeric values."""
        return self._reduce(np.std)

    def median(self):
        """Median of present numeric values (``None`` when none exist)."""
        return self._reduce(np.median)

    def sum(self):
        """Sum of present numeric values (0.0 when none exist)."""
        values, ok, _ = self.to_numeric()
        if not ok.any():
            return 0.0
        return float(values[ok].sum())

    def mode(self):
        """Most frequent present value (ties broken by first occurrence)."""
        return max(self._tally(), key=lambda pair: pair[1], default=(None, 0))[0]

    def _tally(self) -> list:
        """``(value, count)`` per distinct present value, first-seen order."""
        counts = Counter(self.to_list())
        counts.pop(None, None)
        return list(counts.items())

    def _reduce(self, fn):
        if self.dtype in (dtypes.STRING,) and fn in (np.mean, np.std, np.median):
            raise ColumnTypeError(
                f"cannot compute numeric statistic on string column {self.name!r}"
            )
        values, ok, _ = self.to_numeric()
        if not ok.any():
            return None
        return float(fn(values[ok]))


def _build_storage(values, dtype: str, types: set, missing: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Storage and validity of ``values`` as ``dtype``, given their
    :func:`dtypes.scan`.  Numeric storage is one ``astype`` of the present
    cells (numpy casts each cell exactly as an item assignment would, huge
    ints raising ``OverflowError``); only a ``string`` column's non-``str``
    cells are converted one at a time."""
    valid = ~missing
    cells = np.fromiter(values, dtype=object, count=len(values))
    storage = dtypes.storage_dtype(dtype)
    if storage is not object:
        data = np.full(len(cells), _FILL[dtype], dtype=storage)
        data[valid] = cells[valid].astype(storage)
        return data, valid
    cells[missing] = None
    if dtype == dtypes.STRING:  # every cell becomes a str
        others, plain = {t for t in types if t is not str}, str
    else:  # numpy scalars become their Python values
        others, plain = {t for t in types if issubclass(t, np.generic)}, _item
    if others:
        convert = valid & np.fromiter(map(others.__contains__, map(type, cells)),
                                      dtype=bool, count=len(cells))
        for position in np.flatnonzero(convert).tolist():
            cells[position] = plain(cells[position])
    return cells, valid


def _to_python(raw, dtype: str):
    if dtype == dtypes.INT64:
        return int(raw)
    if dtype == dtypes.FLOAT64:
        return float(raw)
    if dtype == dtypes.BOOL:
        return bool(raw)
    return raw


def _strict_number(raw) -> float | None:
    if isinstance(raw, bool):
        return None
    if isinstance(raw, (int, float, np.integer, np.floating)):
        value = float(raw)
        return None if value != value else value
    if isinstance(raw, str):
        return parse_number_strict(raw)
    return None


def _fits(value, dtype: str) -> bool:
    if dtype == dtypes.MIXED:
        return True
    if dtype == dtypes.INT64:
        return isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if dtype == dtypes.FLOAT64:
        return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if dtype == dtypes.BOOL:
        return isinstance(value, (bool, np.bool_))
    if dtype == dtypes.STRING:
        return isinstance(value, str)
    return False


def _widen(dtype: str, value) -> str:
    if dtype == dtypes.INT64 and isinstance(value, (float, np.floating)):
        return dtypes.FLOAT64
    return dtypes.MIXED


def _coerce_scalar(value, dtype: str):
    if dtype == dtypes.INT64:
        return int(value)
    if dtype == dtypes.FLOAT64:
        return float(value)
    if dtype == dtypes.BOOL:
        return bool(value)
    if dtype == dtypes.STRING:
        return value if type(value) is str else str(value)
    return _item(value) if isinstance(value, np.generic) else value


_item = operator.methodcaller("item")


def _convert(value, dtype: str):
    if value is None:
        return None
    if dtype == dtypes.STRING:
        return value if isinstance(value, str) else str(value)
    if dtype == dtypes.MIXED:
        return value
    if dtype == dtypes.BOOL:
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            return None
        if isinstance(value, (int, float)):
            return bool(value)
        return None
    # numeric targets
    number = _strict_number(value)
    if number is None:
        return None
    if dtype == dtypes.INT64:
        if number != int(number):
            return None
        return int(number)
    return float(number)
