"""The :class:`DataFrame` — an immutable-by-convention columnar table.

Every transforming method returns a *new* frame, mimicking the functional
style of idiomatic pandas pipelines.  This copy-heavy computational model is
deliberate: the frame backend in Table 1 of the paper loses to the database
backend precisely because whole-column re-materialization is expensive, and
this class reproduces that cost profile honestly.  The re-materialization is
done the way pandas does it, in whole-column numpy passes (see
:mod:`repro.frame.column`), so the cost is the copying, not per-cell Python.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import LengthMismatchError, MissingColumnError
from repro.frame import dtypes
from repro.frame.column import Column


class DataFrame:
    """An ordered collection of equal-length :class:`Column` objects."""

    __slots__ = ("_columns",)

    def __init__(self, columns: Sequence[Column]):
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names: {names}")
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise LengthMismatchError(f"column lengths differ: {sorted(lengths)}")
        self._columns: dict[str, Column] = {c.name: c for c in columns}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Iterable], dtypes_map: Mapping[str, str] | None = None) -> "DataFrame":
        """Build a frame from ``{name: values}`` with optional dtype overrides."""
        dtypes_map = dtypes_map or {}
        columns = [
            Column(name, values, dtype=dtypes_map.get(name))
            for name, values in data.items()
        ]
        return cls(columns)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], columns: Sequence[str]) -> "DataFrame":
        """Build a frame from row tuples plus column names."""
        transposed: list[list] = [[] for _ in columns]
        for row in rows:
            if len(row) != len(columns):
                raise LengthMismatchError(
                    f"row of width {len(row)} for {len(columns)} columns"
                )
            for i, value in enumerate(row):
                transposed[i].append(value)
        return cls([Column(name, values) for name, values in zip(columns, transposed)])

    @classmethod
    def empty(cls, columns: Sequence[str]) -> "DataFrame":
        """A zero-row frame with the given column names."""
        return cls([Column(name, []) for name in columns])

    # -- shape & access ----------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    @property
    def n_cols(self) -> int:
        """Number of columns."""
        return len(self._columns)

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_rows, n_cols)``."""
        return (self.n_rows, self.n_cols)

    @property
    def column_names(self) -> list[str]:
        """Column names in order."""
        return list(self._columns)

    @property
    def columns(self) -> list[Column]:
        """The column objects in order (do not mutate)."""
        return list(self._columns.values())

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            raise MissingColumnError(name, self.column_names) from None

    def __repr__(self) -> str:
        return f"DataFrame({self.n_rows} rows x {self.n_cols} cols: {', '.join(self.column_names)})"

    def row(self, position: int) -> tuple:
        """The row at ``position`` as a tuple of Python values."""
        return tuple(col[position] for col in self._columns.values())

    def iter_rows(self) -> Iterator[tuple]:
        """Iterate rows as tuples (missing cells are ``None``)."""
        iters = [iter(col) for col in self._columns.values()]
        return zip(*iters) if iters else iter(())

    def to_rows(self) -> list[tuple]:
        """Materialize all rows."""
        return list(self.iter_rows())

    def to_dict(self) -> dict[str, list]:
        """``{name: values}`` with ``None`` for missing cells."""
        return {name: col.to_list() for name, col in self._columns.items()}

    def head(self, n: int = 5) -> "DataFrame":
        """The first ``n`` rows."""
        n = min(n, self.n_rows)
        return self.take(np.arange(n))

    def equals(self, other: "DataFrame") -> bool:
        """Schema and value equality."""
        if self.column_names != other.column_names:
            return False
        return all(self[name].equals(other[name]) for name in self.column_names)

    # -- column-level transforms -------------------------------------------

    def select(self, names: Sequence[str]) -> "DataFrame":
        """New frame with only ``names``, in the given order."""
        return DataFrame([self[name] for name in names])

    def with_column(self, column: Column) -> "DataFrame":
        """New frame with ``column`` added, or replaced if the name exists."""
        if self._columns and len(column) != self.n_rows:
            raise LengthMismatchError(
                f"column of length {len(column)} for frame of {self.n_rows} rows"
            )
        new = dict(self._columns)
        new[column.name] = column
        return DataFrame(list(new.values()))

    def drop_column(self, name: str) -> "DataFrame":
        """New frame without column ``name``."""
        if name not in self._columns:
            raise MissingColumnError(name, self.column_names)
        return DataFrame([c for c in self._columns.values() if c.name != name])

    def rename_column(self, old: str, new: str) -> "DataFrame":
        """New frame with column ``old`` renamed to ``new``."""
        if old not in self._columns:
            raise MissingColumnError(old, self.column_names)
        return DataFrame([
            c.rename(new) if c.name == old else c for c in self._columns.values()
        ])

    # -- row-level transforms (each copies every column) ---------------------

    def filter(self, mask: np.ndarray) -> "DataFrame":
        """New frame keeping rows where ``mask`` is True (copies all columns)."""
        return DataFrame([col.mask_filter(mask) for col in self._columns.values()])

    def take(self, positions: Sequence[int] | np.ndarray) -> "DataFrame":
        """New frame with rows selected/reordered by ``positions``."""
        idx = np.asarray(positions, dtype=np.int64)
        return DataFrame([col.take(idx) for col in self._columns.values()])

    def drop_rows(self, positions: Sequence[int] | np.ndarray) -> "DataFrame":
        """New frame without the rows at ``positions``."""
        mask = np.ones(self.n_rows, dtype=bool)
        mask[np.asarray(list(positions), dtype=np.int64)] = False
        return self.filter(mask)

    def set_values(self, name: str, positions: Sequence[int] | np.ndarray, value) -> "DataFrame":
        """New frame with ``value`` written into column ``name`` at ``positions``."""
        updated = self[name].set_at(positions, value)
        return self.with_column(updated)

    def concat(self, other: "DataFrame") -> "DataFrame":
        """New frame with ``other``'s rows appended (schemas must match)."""
        if self.column_names != other.column_names:
            raise ValueError(
                f"schemas differ: {self.column_names} vs {other.column_names}"
            )
        return DataFrame([
            self[name].concat(other[name]) for name in self.column_names
        ])

    def sort_values(self, name: str, ascending: bool = True) -> "DataFrame":
        """New frame sorted by column ``name`` (missing values last)."""
        col = self[name]
        if col.dtype in dtypes.NUMERIC_DTYPES or col.dtype == dtypes.BOOL:
            values, ok, _ = col.to_numeric()
            keys = values.copy()
            keys[~ok] = np.inf  # ascending order, missing last
            order = np.argsort(keys, kind="stable")
            n_present = int(ok.sum())
        else:
            pairs = []
            for i, value in enumerate(col):
                missing = value is None
                pairs.append((missing, "" if missing else str(value), i))
            pairs.sort(key=lambda p: (p[0], p[1]))
            order = np.array([p[2] for p in pairs], dtype=np.int64)
            n_present = col.n_valid
        if not ascending and len(order):
            # reverse only the present prefix; missing rows stay last
            order = np.concatenate([order[:n_present][::-1], order[n_present:]])
        return self.take(order)

    # -- analytics ----------------------------------------------------------

    def groupby(self, name: str):
        """Group rows by the values of column ``name`` (see ``GroupBy``)."""
        from repro.frame.groupby import GroupBy

        return GroupBy(self, name)

    def categorical_columns(self, max_categories: int | None = None) -> list[str]:
        """Columns suitable as grouping attributes (string/bool/low-card int).

        An integer column needs at least one and at most
        ``min(max_categories, 20)`` distinct values — the SQL backend's rule,
        so both backends group one upload the same way.
        """
        result = []
        for col in self._columns.values():
            if col.dtype in (dtypes.STRING, dtypes.BOOL):
                if max_categories is None or len(col.unique()) <= max_categories:
                    result.append(col.name)
            elif col.dtype == dtypes.INT64:
                distinct = len(col.unique())
                if 0 < distinct <= min(max_categories or 20, 20):
                    result.append(col.name)
        return result

    def numerical_columns(self) -> list[str]:
        """Columns holding (possibly messy) numeric data.

        Includes ``mixed`` columns where most present values parse as
        numbers — exactly the dirty columns Buckaroo must handle.  A
        column with no present value is not numerical (nor on SQL).
        """
        result = []
        for col in self._columns.values():
            if col.dtype in dtypes.NUMERIC_DTYPES:
                if col.n_missing < len(col):
                    result.append(col.name)
            elif col.dtype == dtypes.MIXED:
                _, ok, mismatch = col.to_numeric()
                present = ok.sum() + mismatch.sum()
                if present and ok.sum() / present >= 0.5:
                    result.append(col.name)
        return result

    def describe(self) -> dict[str, dict]:
        """Per-column summary: dtype, missing count, numeric stats when valid."""
        summary: dict[str, dict] = {}
        for col in self._columns.values():
            entry: dict = {
                "dtype": col.dtype,
                "count": len(col),
                "missing": col.n_missing,
            }
            if col.dtype in dtypes.NUMERIC_DTYPES:
                entry.update(
                    mean=col.mean(), std=col.std(), min=col.min(), max=col.max()
                )
            summary[col.name] = entry
        return summary
