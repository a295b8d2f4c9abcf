"""The dataframe-backed storage backend (the paper's Pandas path).

This backend deliberately follows the Pandas computational model: every
mutation re-materializes whole columns, and there are no secondary indexes —
detector scans and group-scoped statistics recompute over the full column
after any change.  Like pandas, each of those full-column passes (rebuilding
a column, its numeric view, the row-id positions) runs as a numpy or C-level
pass, not a per-cell Python loop.  That is the cost profile Table 1 measures against
Postgres, and reproducing it honestly is the point of this class: the
Pandas path is the baseline the paper's SQL path is measured against.
Group-scoped statistics select their rows with a comparison mask over the
categorical column (``valid & (data == category)``, pandas' ``df[cat] ==
v``), one vectorized pass per call.  Writes build their delta first
(``_set_delta`` / ``_delete_delta``, where the skip-unchanged rule lives),
then write it; planning a later op of a plan replays the earlier ones on a
frame of just the rows they name, so widened dtypes read back widened.
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
from repro.frame import DataFrame, dtypes
from repro.frame.column import Column
from repro.snapshots.delta import DeltaSnapshot

from repro.backends.base import Backend, ViewMiss


class FrameBackend(Backend):
    """Buckaroo storage on :mod:`repro.frame` (Pandas stand-in)."""

    kind = "frame"

    def __init__(self, frame: DataFrame):
        self._frame = frame
        self._ids = np.arange(1, frame.n_rows + 1, dtype=np.int64)
        self._next_id = frame.n_rows + 1
        # each column's dtype as uploaded: undo narrows a column a write had
        # widened back to it (52 must read back as 52, not 52.0)
        self._dtypes = {col.name: col.dtype for col in frame.columns}
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
            self._position_cache = dict(zip(self._ids.tolist(), range(len(self._ids))))
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
        position = self._positions().get(row_id)
        if position is None:
            raise BuckarooError(f"no row {row_id}")
        return dict(zip(self._frame.column_names, self._frame.row(position)))

    def values(self, column: str, row_ids: Sequence[int]) -> list:
        positions = self._positions()
        return self._frame[column].take([positions[row_id] for row_id in row_ids]).to_list()

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
            # full-column groupby, recomputed from scratch after any mutation
            cached = {}
            ids = self._ids
            for position, value in enumerate(self._frame[cat_col]):
                cached.setdefault(value, []).append(int(ids[position]))
            self._group_cache[cat_col] = cached
        return cached

    def numeric_stats(self, num_col: str, cat_col: Optional[str] = None,
                      category=None) -> Stats:
        values, ok, _ = self._numeric_view(num_col)
        if cat_col is not None:   # the group's rows: pandas' df[cat] == v
            col = self._frame[cat_col]
            ok = ok & (col.missing_mask if category is None
                       else col._valid & (col._data == category))
        usable = values[ok]
        if not len(usable):
            return Stats(0, None, None, None, None)
        return Stats(
            int(len(usable)),
            float(np.mean(usable)),
            float(np.std(usable)),
            float(np.min(usable)),
            float(np.max(usable)),
        )

    # -- detector capabilities (full-column numpy scans) --------------------------

    def missing_row_ids(self, num_col: str) -> list[int]:
        return [int(row_id) for row_id in self._ids[self._frame[num_col].missing_mask]]

    def mismatch_row_ids(self, num_col: str) -> list[int]:
        _, _, mismatch = self._numeric_view(num_col)
        return [int(row_id) for row_id in self._ids[mismatch]]

    def out_of_range_row_ids(self, num_col: str, low: float, high: float) -> list[int]:
        values, ok, _ = self._numeric_view(num_col)
        with np.errstate(invalid="ignore"):
            outside = ok & ((values < low) | (values > high))
        return [int(row_id) for row_id in self._ids[outside]]

    # -- writes -----------------------------------------------------------------

    def delete_rows(self, row_ids: Sequence[int]) -> DeltaSnapshot:
        delta = self._delete_delta(row_ids)
        self._write(delta)
        return delta

    def set_cells(self, column: str, row_ids: Sequence[int], value=None,
                  values: Optional[Sequence] = None) -> DeltaSnapshot:
        delta = self._set_delta(column, row_ids, value, values)
        self._write(delta)
        return delta

    def apply_delta(self, delta: DeltaSnapshot) -> None:
        self._write(delta)
        self._restore_dtypes(self._frame.column_names if delta.inserted
                             else {c for cells in delta.updated.values() for c in cells})

    def _delete_delta(self, row_ids: Sequence[int], earlier=()) -> DeltaSnapshot:
        """The live rows among ``row_ids``, with their content."""
        if earlier:
            return self._replay(row_ids, earlier)._delete_delta(row_ids)
        positions = self._positions()
        names = self._frame.column_names
        delta = DeltaSnapshot(label="delete_rows")
        for row_id in row_ids:
            position = positions.get(row_id)
            if position is not None:
                delta.deleted[row_id] = dict(zip(names, self._frame.row(position)))
        return delta

    def _set_delta(self, column: str, row_ids: Sequence[int], value=None,
                   values: Optional[Sequence] = None, earlier=()) -> DeltaSnapshot:
        """The cells a write changes: live rows whose value or its type differs."""
        if earlier:
            return self._replay(row_ids, earlier)._set_delta(column, row_ids, value, values)
        positions = self._positions()
        col = self._frame[column]
        new_values = list(values) if values is not None else [value] * len(row_ids)
        delta = DeltaSnapshot(label=f"set_cells({column})")
        for row_id, new in zip(row_ids, new_values):
            position = positions.get(row_id)
            if position is None:
                continue
            old = col[position]
            if old == new and type(old) is type(new):
                continue
            delta.updated[row_id] = {column: (old, new)}
        return delta

    def _replay(self, row_ids: Sequence[int], earlier) -> "FrameBackend":
        """The rows named here and in ``earlier``, with ``earlier`` written."""
        positions = self._positions()
        named = set(row_ids).union(*(delta.row_ids() for delta in earlier))
        live = sorted(positions[row_id] for row_id in named if row_id in positions)
        replay = FrameBackend(self._frame.take(live))
        replay._ids = self._ids[live]
        for delta in earlier:
            replay._write(delta)
        return replay

    def classify(self, column: str, values: Sequence) -> list:
        """How the column would hold ``values`` (see ``DeltaView``): ``set_at``
        plus ``to_numeric`` on a column of just those cells.  Any widening but
        int64 -> float64 raises :class:`ViewMiss`: it can change the class of
        cells already in the column (a bool or NaN reads as text in ``mixed``)."""
        dtype = self._frame[column].dtype
        probe = Column(column, [None] * len(values), dtype=dtype).set_at(
            np.arange(len(values)), list(values))
        if probe.dtype != dtype and (dtype, probe.dtype) != (dtypes.INT64, dtypes.FLOAT64):
            raise ViewMiss(f"writing {column!r} widens {dtype} to {probe.dtype}")
        numbers, _ok, mismatch = probe.to_numeric()
        return [
            None if not present else str(value) if text else float(number)
            for value, present, text, number
            in zip(values, probe.valid_mask, mismatch, numbers)
        ]

    def _write(self, delta: DeltaSnapshot) -> None:
        """Write ``delta`` pandas-style: each step rebuilds whole columns."""
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
            contents = list(delta.inserted.values())
            at = np.arange(len(contents))
            # each column's current dtype, widened only where a value does not
            # fit: re-inferring would read an int in a mixed column as 0.0
            addition = DataFrame([
                Column(col.name, [None] * len(contents), dtype=col.dtype).set_at(
                    at, [content.get(col.name) for content in contents])
                for col in self._frame.columns
            ])
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

    def _restore_dtypes(self, columns) -> None:
        """Bring ``columns`` back to their uploaded dtype where every value fits."""
        for name in columns:
            col = self._frame[name]
            prior = self._dtypes[name]
            if prior not in (col.dtype, dtypes.MIXED):  # nothing is narrower than mixed
                narrowed = col.astype(prior)
                if narrowed.equals(col):
                    self._frame = self._frame.with_column(narrowed)
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
