"""The dataframe-backed storage backend (the paper's Pandas path).

This backend deliberately follows the Pandas computational model: every
mutation re-materializes whole columns, and there are no secondary indexes —
detector scans and the per-group scope masks behind them recompute over the
full column after any change.  That is the cost profile Table 1 measures
against Postgres, and reproducing it honestly is the point of this class:
the Pandas path is the baseline the paper's SQL path is measured against.
Which rows form which *group* is not this class's business:
:class:`repro.core.groups.GroupManager` keeps that index for both backends
from ``all_row_ids`` + ``values``.  ``group_row_ids`` /
``group_sizes`` have no caller in the library; they stay as the independent
reference the tests compare that index against (and the end-to-end
benchmark's backend proxy forwards them by name).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.types import Stats
from repro.errors import BuckarooError
from repro.frame import DataFrame
from repro.snapshots.delta import DeltaSnapshot

from repro.backends.base import Backend


class FrameBackend(Backend):
    """Buckaroo storage on :mod:`repro.frame` (Pandas stand-in)."""

    kind = "frame"

    def __init__(self, frame: DataFrame):
        self._frame = frame
        self._ids = np.arange(1, frame.n_rows + 1, dtype=np.int64)
        self._next_id = frame.n_rows + 1
        self._position_cache: dict[int, int] | None = None
        self._group_cache: dict[str, dict] = {}
        # numeric views (values/ok/mismatch) of each column, recomputed in
        # full after every mutation — the pandas cost model: any change to
        # the frame forces downstream derivations to re-run over the column
        self._numeric_cache: dict[str, tuple] = {}

    @classmethod
    def from_frame(cls, frame: DataFrame) -> "FrameBackend":
        """Wrap a DataFrame (named for symmetry with SQLBackend)."""
        return cls(frame)

    @property
    def frame(self) -> DataFrame:
        """The current dataframe state."""
        return self._frame

    # -- internals ------------------------------------------------------------

    def _positions(self) -> dict[int, int]:
        if self._position_cache is None:
            self._position_cache = {
                int(row_id): position for position, row_id in enumerate(self._ids)
            }
        return self._position_cache

    def _invalidate(self) -> None:
        """After any mutation the pandas-style caches must be rebuilt."""
        self._position_cache = None
        self._group_cache.clear()
        self._numeric_cache.clear()

    def _numeric_view(self, column: str) -> tuple:
        """Cached ``(values, ok, mismatch)`` for one column."""
        cached = self._numeric_cache.get(column)
        if cached is None:
            cached = self._frame[column].to_numeric()
            self._numeric_cache[column] = cached
        return cached

    def _position_of(self, row_id: int) -> int:
        try:
            return self._positions()[row_id]
        except KeyError:
            raise BuckarooError(f"no row {row_id}") from None

    # -- schema ----------------------------------------------------------------

    def column_names(self) -> list[str]:
        return self._frame.column_names

    def row_count(self) -> int:
        return self._frame.n_rows

    def categorical_columns(self, max_categories: int = 50) -> list[str]:
        return self._frame.categorical_columns(max_categories)

    def numerical_columns(self) -> list[str]:
        return self._frame.numerical_columns()

    # -- reads -----------------------------------------------------------------

    def all_row_ids(self) -> list[int]:
        return [int(row_id) for row_id in self._ids]

    def row(self, row_id: int) -> dict:
        position = self._position_of(row_id)
        return dict(zip(self._frame.column_names, self._frame.row(position)))

    def values(self, column: str, row_ids: Sequence[int]) -> list:
        col = self._frame[column]
        positions = self._positions()
        return [col[positions[row_id]] for row_id in row_ids]

    def distinct_values(self, column: str) -> list:
        return self._frame[column].unique()

    def group_row_ids(self, cat_col: str, category) -> list[int]:
        groups = self._group_index(cat_col)
        return list(groups.get(category, []))

    def group_sizes(self, cat_col: str) -> dict:
        return {
            category: len(ids)
            for category, ids in self._group_index(cat_col).items()
        }

    def _group_index(self, cat_col: str) -> dict:
        cached = self._group_cache.get(cat_col)
        if cached is None:
            # full-column groupby behind the scope masks, recomputed from
            # scratch after any mutation
            cached = {}
            ids = self._ids
            for position, value in enumerate(self._frame[cat_col]):
                cached.setdefault(value, []).append(int(ids[position]))
            self._group_cache[cat_col] = cached
        return cached

    def numeric_stats(self, num_col: str, cat_col: Optional[str] = None,
                      category=None) -> Stats:
        values, ok, _ = self._numeric_view(num_col)
        mask = ok & self._scope_mask(cat_col, category)
        usable = values[mask]
        if not len(usable):
            return Stats(0, None, None, None, None)
        return Stats(
            int(len(usable)),
            float(np.mean(usable)),
            float(np.std(usable)),
            float(np.min(usable)),
            float(np.max(usable)),
        )

    def _scope_mask(self, cat_col: Optional[str], category) -> np.ndarray:
        if cat_col is None:
            return np.ones(self._frame.n_rows, dtype=bool)
        if category is None:
            return self._frame[cat_col].missing_mask
        mask = np.zeros(self._frame.n_rows, dtype=bool)
        positions_map = self._positions()
        for row_id in self._group_index(cat_col).get(category, ()):
            mask[positions_map[row_id]] = True
        return mask

    # -- detector capabilities (full-column numpy scans) --------------------------

    def missing_row_ids(self, num_col: str, cat_col: Optional[str] = None,
                        category=None) -> list[int]:
        mask = self._frame[num_col].missing_mask & self._scope_mask(cat_col, category)
        return [int(row_id) for row_id in self._ids[mask]]

    def mismatch_row_ids(self, num_col: str, cat_col: Optional[str] = None,
                         category=None) -> list[int]:
        _, _, mismatch = self._numeric_view(num_col)
        mask = mismatch & self._scope_mask(cat_col, category)
        return [int(row_id) for row_id in self._ids[mask]]

    def out_of_range_row_ids(self, num_col: str, low: float, high: float,
                             cat_col: Optional[str] = None,
                             category=None) -> list[int]:
        values, ok, _ = self._numeric_view(num_col)
        with np.errstate(invalid="ignore"):
            outside = ok & ((values < low) | (values > high))
        mask = outside & self._scope_mask(cat_col, category)
        return [int(row_id) for row_id in self._ids[mask]]

    # -- writes -----------------------------------------------------------------

    def delete_rows(self, row_ids: Sequence[int]) -> DeltaSnapshot:
        positions = self._positions()
        names = self._frame.column_names
        delta = DeltaSnapshot(label="delete_rows")
        doomed_positions = []
        for row_id in row_ids:
            position = positions.get(row_id)
            if position is None:
                continue
            delta.deleted[row_id] = dict(zip(names, self._frame.row(position)))
            doomed_positions.append(position)
        keep = np.ones(self._frame.n_rows, dtype=bool)
        keep[doomed_positions] = False
        # pandas-style: rebuilds every column
        self._frame = self._frame.filter(keep)
        self._ids = self._ids[keep]
        self._invalidate()
        return delta

    def set_cells(self, column: str, row_ids: Sequence[int], value=None,
                  values: Optional[Sequence] = None) -> DeltaSnapshot:
        positions_map = self._positions()
        col = self._frame[column]
        new_values = list(values) if values is not None else [value] * len(row_ids)
        delta = DeltaSnapshot(label=f"set_cells({column})")
        write_positions = []
        write_values = []
        for row_id, new in zip(row_ids, new_values):
            position = positions_map.get(row_id)
            if position is None:
                continue
            old = col[position]
            if old == new and type(old) is type(new):
                continue
            delta.updated[row_id] = {column: (old, new)}
            write_positions.append(position)
            write_values.append(new)
        if write_positions:
            # pandas-style: copies the whole column
            self._frame = self._frame.set_values(column, write_positions, write_values)
            self._invalidate()
        return delta

    def apply_delta(self, delta: DeltaSnapshot) -> None:
        if delta.deleted:
            positions_map = self._positions()
            keep = np.ones(self._frame.n_rows, dtype=bool)
            for row_id in delta.deleted:
                position = positions_map.get(row_id)
                if position is not None:
                    keep[position] = False
            self._frame = self._frame.filter(keep)
            self._ids = self._ids[keep]
            self._invalidate()
        if delta.inserted:
            names = self._frame.column_names
            rows = [
                tuple(content.get(name) for name in names)
                for content in delta.inserted.values()
            ]
            addition = DataFrame.from_rows(rows, names)
            self._frame = self._frame.concat(addition)
            self._ids = np.concatenate([
                self._ids, np.array(list(delta.inserted.keys()), dtype=np.int64)
            ])
            self._next_id = max(self._next_id, int(self._ids.max()) + 1)
            self._invalidate()
        if delta.updated:
            by_column: dict[str, tuple[list, list]] = {}
            positions_map = self._positions()
            for row_id, cells in delta.updated.items():
                position = positions_map.get(row_id)
                if position is None:
                    continue
                for column, (_old, new) in cells.items():
                    bucket = by_column.setdefault(column, ([], []))
                    bucket[0].append(position)
                    bucket[1].append(new)
            for column, (positions, new_values) in by_column.items():
                self._frame = self._frame.set_values(column, positions, new_values)
            self._invalidate()

    # -- infrastructure -----------------------------------------------------------

    def ensure_index(self, column: str) -> None:
        """No-op: dataframes have no secondary indexes (the point of Table 1)."""

    def flush(self) -> int:
        """No-op: the frame is already the only copy."""
        return 0

    def to_frame(self, include_row_ids: bool = False) -> DataFrame:
        if not include_row_ids:
            return self._frame
        data: dict[str, list] = {"_row_id": [int(i) for i in self._ids]}
        data.update(self._frame.to_dict())
        return DataFrame.from_dict(data)
