"""The database-backed storage backend (the paper's Postgres path).

Every detector capability is a SQL query; every group lookup hits an index;
repairs are point DELETEs/UPDATEs by rowid.  This backend embodies the
locality argument behind Table 1: work is proportional to the rows touched,
not to the dataset size.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.types import Stats
from repro.errors import BuckarooError
from repro.frame import DataFrame, dtypes
from repro.minidb import Database, connect
from repro.snapshots.delta import DeltaSnapshot

from repro.backends.base import Backend, compose_all
from repro.backends.stats_cache import GroupStatsCache

_SQL_TYPES = {
    dtypes.INT64: "BIGINT",
    dtypes.FLOAT64: "DOUBLE PRECISION",
    dtypes.BOOL: "INT",
    dtypes.STRING: "TEXT",
    dtypes.MIXED: "REAL",  # numeric affinity keeps numbers; dirty text survives
}


class SQLBackend(Backend):
    """Buckaroo storage on :mod:`repro.minidb` (Postgres stand-in)."""

    kind = "sql"

    def __init__(self, db: Database, table: str = "data"):
        if not db.has_table(table):
            raise BuckarooError(f"database has no table {table!r}")
        self.db = db
        self.table_name = table
        self._table = db.table(table)
        self.stats_cache = GroupStatsCache(self._table)
        # the hot interactive queries (per-group, per-column shapes) run as
        # prepared statements: parse + plan once, rebind per call.  Keyed
        # by SQL text locally so backend statements never feel LRU pressure
        # from unrelated queries in the database-level cache.
        self._prepared: dict[str, object] = {}

    def _prepare(self, sql: str):
        prepared = self._prepared.get(sql)
        if prepared is None:
            prepared = self.db.prepare(sql)
            self._prepared[sql] = prepared
        return prepared

    def _query(self, sql: str, params: tuple = ()):
        """Execute ``sql`` through a backend-cached prepared statement."""
        return self._prepare(sql).execute(params)

    def register_chart_columns(self, cat_cols, num_cols) -> None:
        """Start incremental stats/error caching for the chart attributes.

        This is the §3.2 backend cache: one build scan, then O(changed
        cells) maintenance per mutation, making group statistics, missing/
        mismatch lookups, and re-plot aggregates O(1)/O(answer).
        """
        self.stats_cache.track(list(cat_cols), list(num_cols))

    @classmethod
    def from_frame(cls, frame: DataFrame, table: str = "data",
                   wal: bool = True,
                   path: str | None = None, **options) -> "SQLBackend":
        """Load a DataFrame into a fresh database (the §2 upload step).

        ``path`` opens a durable file-backed database (rows on pages
        behind a buffer pool, crash-safe WAL); the default is in-memory.
        Extra options (``pool_pages``, ``fsync``, ...) pass through to
        :func:`repro.minidb.connect`.
        """
        if path is not None:
            db = connect(path, **options)
        else:
            db = connect(wal=wal or None, **options)
        columns_sql = ", ".join(
            f'"{col.name}" {_SQL_TYPES[col.dtype]}' for col in frame.columns
        )
        db.execute(f"CREATE TABLE {table} ({columns_sql})")
        db.insert_rows(table, frame.iter_rows())
        if db.wal is not None:
            db.checkpoint()  # the initial load is not an undoable operation
        return cls(db, table)

    # -- schema ----------------------------------------------------------------

    def column_names(self) -> list[str]:
        return list(self._table.schema.column_names)

    def row_count(self) -> int:
        return self._table.n_rows

    def categorical_columns(self, max_categories: int = 50) -> list[str]:
        result = []
        for coldef in self._table.schema.columns:
            if coldef.affinity == "text":
                distinct = self._distinct_count_capped(coldef.name, max_categories)
                if distinct <= max_categories:
                    result.append(coldef.name)
            elif coldef.affinity == "integer":
                cap = min(max_categories, 20)
                distinct = self._distinct_count_capped(coldef.name, cap)
                if 0 < distinct <= cap:
                    result.append(coldef.name)
        return result

    def _distinct_count_capped(self, column: str, cap: int) -> int:
        """Distinct non-NULL values, capped at ``cap + 1``.

        Runs as a streaming ``DISTINCT ... LIMIT`` cursor, so a
        high-cardinality column stops scanning as soon as ``cap + 1``
        distinct values have been seen instead of aggregating the whole
        table just to learn "too many".
        """
        prepared = self._prepare(
            f'SELECT DISTINCT "{column}" FROM {self.table_name} '
            f'WHERE "{column}" IS NOT NULL LIMIT ?'
        )
        return sum(1 for _ in prepared.stream((cap + 1,)))

    def numerical_columns(self) -> list[str]:
        result = []
        for coldef in self._table.schema.columns:
            if coldef.affinity in ("integer", "real"):
                counts = self._query(
                    f'SELECT COUNT("{coldef.name}"), '
                    f'SUM(CASE WHEN typeof("{coldef.name}") = \'text\' '
                    f"THEN 1 ELSE 0 END) FROM {self.table_name}"
                ).first()
                present, text = counts
                text = text or 0
                if present and (present - text) / present >= 0.5:
                    result.append(coldef.name)
        return result

    # -- reads -----------------------------------------------------------------

    def all_row_ids(self) -> list[int]:
        return list(self._table.rows.keys())

    def row(self, row_id: int) -> dict:
        values = self._table.get(row_id)
        if values is None:
            raise BuckarooError(f"no row {row_id}")
        return dict(zip(self._table.schema.column_names, values))

    def values(self, column: str, row_ids: Sequence[int]) -> list:
        # direct storage access — the "Python wrappers to access the
        # database" of Fig 2 ⑤ (equivalent to a rowid-keyed prepared lookup)
        position = self._table.schema.position(column)
        rows = self._table.rows
        return [rows[row_id][position] for row_id in row_ids]

    def distinct_values(self, column: str) -> list:
        result = self._query(
            f'SELECT DISTINCT "{column}" FROM {self.table_name} '
            f'WHERE "{column}" IS NOT NULL'
        )
        return result.scalars()

    def group_row_ids(self, cat_col: str, category) -> list[int]:
        if category is None:
            result = self._query(
                f'SELECT rowid FROM {self.table_name} WHERE "{cat_col}" IS NULL'
            )
        else:
            result = self._query(
                f'SELECT rowid FROM {self.table_name} WHERE "{cat_col}" = ?',
                (category,),
            )
        return result.scalars()

    def group_sizes(self, cat_col: str) -> dict:
        result = self._query(
            f'SELECT "{cat_col}", COUNT(*) FROM {self.table_name} GROUP BY "{cat_col}"'
        )
        return {key: count for key, count in result.rows}

    def numeric_stats(self, num_col: str, cat_col: Optional[str] = None,
                      category=None) -> Stats:
        if self.stats_cache.tracks_pair(num_col, cat_col):
            return self.stats_cache.stats(num_col, cat_col, category)
        where, params = self._numeric_scope(num_col, cat_col, category)
        row = self._query(
            f'SELECT COUNT("{num_col}"), AVG("{num_col}"), STDDEV("{num_col}"), '
            f'MIN("{num_col}"), MAX("{num_col}") FROM {self.table_name} WHERE {where}',
            params,
        ).first()
        count, mean, std, lo, hi = row
        return Stats(count or 0, mean, std, lo, hi)

    # -- detector capabilities (SQL, per §3.1) -----------------------------------

    def missing_row_ids(self, num_col: str) -> list[int]:
        if self.stats_cache.tracks_numeric(num_col):
            return sorted(self.stats_cache.missing_rows(num_col))
        return self._query(
            f'SELECT rowid FROM {self.table_name} WHERE "{num_col}" IS NULL'
        ).scalars()

    def mismatch_row_ids(self, num_col: str) -> list[int]:
        if self.stats_cache.tracks_numeric(num_col):
            return sorted(self.stats_cache.text_rows(num_col))
        return self._query(
            f'SELECT rowid FROM {self.table_name} '
            f'WHERE typeof("{num_col}") = \'text\''
        ).scalars()

    def out_of_range_row_ids(self, num_col: str, low: float, high: float) -> list[int]:
        btree = next(
            (ix for ix in self._table.indexes_on(num_col) if ix.kind == "btree"),
            None,
        )
        if btree is not None:
            # two tail scans over the value index: O(answer), not O(table)
            rows = set(btree.numeric_range(None, low, include_high=False))
            rows.update(btree.numeric_range(high, None, include_low=False))
            return sorted(rows)
        sql = (
            f'SELECT rowid FROM {self.table_name} '
            f'WHERE typeof("{num_col}") <> \'text\' AND "{num_col}" IS NOT NULL '
            f'AND ("{num_col}" < ? OR "{num_col}" > ?)'
        )
        return self._query(sql, (low, high)).scalars()

    def _numeric_scope(self, num_col: str, cat_col: Optional[str],
                       category) -> tuple[str, tuple]:
        base = f'typeof("{num_col}") <> \'text\' AND "{num_col}" IS NOT NULL'
        if cat_col is None:
            return base, ()
        if category is None:
            return f'{base} AND "{cat_col}" IS NULL', ()
        return f'{base} AND "{cat_col}" = ?', (category,)

    # -- writes -----------------------------------------------------------------

    def delete_rows(self, row_ids: Sequence[int]) -> DeltaSnapshot:
        delta = self._delete_delta(row_ids)
        self.db.executemany(
            f"DELETE FROM {self.table_name} WHERE rowid = ?",
            [(row_id,) for row_id in delta.deleted],
        )
        return delta

    def set_cells(self, column: str, row_ids: Sequence[int], value=None,
                  values: Optional[Sequence] = None) -> DeltaSnapshot:
        delta = self._set_delta(column, row_ids, value, values)
        self.db.executemany(
            f'UPDATE {self.table_name} SET "{column}" = ? WHERE rowid = ?',
            [(cells[column][1], row_id) for row_id, cells in delta.updated.items()],
        )
        return delta

    def _delete_delta(self, row_ids: Sequence[int], earlier=()) -> DeltaSnapshot:
        """The live rows among ``row_ids`` with their content, after ``earlier``."""
        names = self._table.schema.column_names
        rows, prior = self._table.rows, compose_all(earlier)
        delta = DeltaSnapshot(label="delete_rows")
        for row_id in row_ids:
            stored = rows.get(row_id)
            if stored is not None and row_id not in prior.deleted:
                content = delta.deleted[row_id] = dict(zip(names, stored))
                for column, (_old, new) in prior.updated.get(row_id, {}).items():
                    content[column] = new
        return delta

    def _set_delta(self, column: str, row_ids: Sequence[int], value=None,
                   values: Optional[Sequence] = None, earlier=()) -> DeltaSnapshot:
        """The cells a write changes: live rows whose coerced value differs.

        The delta records the *coerced* value: it must hold exactly what the
        UPDATE stores, or undo/redo replays diverge from the table.
        """
        position = self._table.schema.position(column)
        new_values = list(values) if values is not None else [value] * len(row_ids)
        rows, prior = self._table.rows, compose_all(earlier)
        delta = DeltaSnapshot(label=f"set_cells({column})")
        for row_id, new in zip(row_ids, new_values):
            stored = rows.get(row_id)
            if stored is None or row_id in prior.deleted:
                continue
            written = prior.updated.get(row_id, {}).get(column)
            old = stored[position] if written is None else written[1]
            coerced = self._table.coerce(position, new)
            if old == coerced and type(old) is type(coerced):
                continue
            delta.updated[row_id] = {column: (old, coerced)}
        return delta

    def classify(self, column: str, values: Sequence) -> list:
        """Stored values are what detection reads (see ``DeltaView``)."""
        return list(values)

    def apply_delta(self, delta: DeltaSnapshot) -> None:
        names = self._table.schema.column_names
        for row_id in delta.deleted:
            self._table.delete(row_id)
        for row_id, content in delta.inserted.items():
            self._table.insert([content.get(name) for name in names], rowid=row_id)
        for row_id, cells in delta.updated.items():
            changes = {
                self._table.schema.position(column): new
                for column, (_old, new) in cells.items()
            }
            self._table.update(row_id, changes)

    # -- infrastructure -----------------------------------------------------------

    def ensure_index(self, column: str) -> None:
        """Index ``column``: hash for text attributes, B+tree for numerics.

        Implements "Buckaroo also creates Postgres indexes for all the
        attribute combinations in the charts" (§2).
        """
        index_name = f"idx_{self.table_name}_{column}"
        if index_name in self.db.index_catalog:
            return
        affinity = self._table.schema.column(column).affinity
        kind = "hash" if affinity == "text" else "btree"
        self.db.execute(
            f'CREATE INDEX IF NOT EXISTS {index_name} '
            f'ON {self.table_name} ("{column}") USING {kind}'
        )

    def flush(self) -> int:
        return self.db.checkpoint()

    def to_frame(self, include_row_ids: bool = False) -> DataFrame:
        names = self._table.schema.column_names
        data: dict[str, list] = {}
        if include_row_ids:
            data["_row_id"] = list(self._table.rows.keys())
        for i, name in enumerate(names):
            data[name] = [row[i] for row in self._table.rows.values()]
        return DataFrame.from_dict(data)
