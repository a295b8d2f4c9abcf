"""Table statistics and the selectivity model behind cost-based planning.

The planner (``repro.minidb.planner``) asks one question this module
answers from lightweight, lazily maintained statistics: *how many rows
will this scan produce?*  The answer decides index-vs-scan demotion,
stream-vs-hash aggregation and the vectorize gate.

Per-table row counts are always exact (read live off the table); each
column keeps a distinct-value count and a NULL fraction, which feed a
classic System-R-style selectivity model: ``1/distinct`` for equality,
the NULL fraction for ``IS NULL``, and flat defaults for ranges,
BETWEEN, LIKE and anything else.  No estimate reads a comparand's
value, so a cached plan never depends on one particular binding.

Maintenance contract: every table mutation bumps ``Table.version`` (one
integer increment on INSERT/UPDATE/DELETE — nothing per-column happens
on the write path), and column estimates are **rebuilt on demand** the
first time the planner asks after the version has drifted past a
staleness threshold.  Rebuilds read exact distinct counts from covering
single-column indexes when available (the B+tree's O(1) distinct-key
counter) and otherwise estimate from a bounded sample of rows, counting
values under plain equality (``1 == 1.0``).  ``Database.analyze()``
forces an immediate rebuild.
"""

from __future__ import annotations

import threading

from repro.minidb import ast_nodes as ast
from repro.minidb.storage import Table

#: rebuild when at least this many mutations landed since the last build...
REBUILD_FLOOR = 64
#: ...and they amount to this fraction of the rows seen at build time
REBUILD_FRACTION = 0.2
#: rebuild scans at most this many rows; larger tables are extrapolated
SAMPLE_CAP = 20_000

# default selectivities when a conjunct's shape gives nothing better
EQ_DEFAULT = 0.1
RANGE_DEFAULT = 0.3
BETWEEN_DEFAULT = 0.25
LIKE_DEFAULT = 0.25
OTHER_DEFAULT = 0.5


class ColumnStats:
    """Distinct-value and NULL-fraction estimates for one column."""

    __slots__ = ("distinct", "null_fraction")

    def __init__(self, distinct: float, null_fraction: float):
        self.distinct = max(1.0, float(distinct))
        self.null_fraction = min(1.0, max(0.0, float(null_fraction)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnStats(distinct={self.distinct:.0f}, "
            f"null_fraction={self.null_fraction:.3f})"
        )


class TableStats:
    """Lazily rebuilt per-column statistics for one table.

    ``on_rebuild`` (set by :class:`StatsManager`) is invoked after every
    rebuild so the manager can advance its global ``version`` — the half
    of the plan-cache invalidation key that tracks statistics churn.
    """

    __slots__ = ("table", "on_rebuild", "_columns", "_built_version",
                 "_built_rows", "_lock")

    def __init__(self, table: Table, on_rebuild=None, lock=None):
        self.table = table
        self.on_rebuild = on_rebuild
        self._columns: dict[str, ColumnStats] | None = None
        self._built_version = -1
        self._built_rows = 0
        # rebuilds are guarded so concurrent sessions never observe a
        # half-built estimate dict (plans are shared across connections)
        self._lock = lock if lock is not None else threading.RLock()

    @property
    def n_rows(self) -> int:
        """Exact live row count (never estimated)."""
        return self.table.n_rows

    def stale(self) -> bool:
        if self._columns is None:
            return True
        drift = self.table.version - self._built_version
        return drift > max(REBUILD_FLOOR, self._built_rows * REBUILD_FRACTION)

    def refresh(self, force: bool = False) -> None:
        if force or self.stale():
            with self._lock:
                if force or self.stale():  # double-checked under the lock
                    self._rebuild()

    def column(self, name: str) -> ColumnStats | None:
        self.refresh()
        return self._columns.get(name)

    def distinct(self, column: str) -> float:
        """Estimated distinct non-NULL values in ``column`` (>= 1)."""
        if column == "rowid" and not self.table.schema.has_column("rowid"):
            return float(max(1, self.n_rows))
        stats = self.column(column)
        if stats is None:
            return float(max(1, self.n_rows))  # unknown: assume unique
        return stats.distinct

    def null_fraction(self, column: str) -> float:
        stats = self.column(column)
        return 0.0 if stats is None else stats.null_fraction

    # -- rebuild ------------------------------------------------------------

    def _rebuild(self) -> None:
        table = self.table
        n = table.n_rows
        columns = self._from_indexes(n)
        names = table.schema.column_names
        rows = _sample_rows(table) if names and n else []
        sampled = len(rows)
        # one transpose; columns an index already counted exactly are skipped
        for name, values in zip(names, zip(*rows) if rows else ()):
            if name in columns:
                continue
            present = [value for value in values if value is not None]
            columns[name] = ColumnStats(
                _extrapolate_distinct(_count_distinct(present), sampled, n),
                (sampled - len(present)) / sampled,
            )
        for name in names:
            if name not in columns:
                columns[name] = ColumnStats(1.0, 0.0)
        self._columns = columns
        self._built_version = table.version
        self._built_rows = n
        if self.on_rebuild is not None:
            self.on_rebuild()

    def _from_indexes(self, n_rows: int) -> dict[str, ColumnStats]:
        """Exact column stats read straight off single-column indexes."""
        out: dict[str, ColumnStats] = {}
        for index in self.table.indexes.values():
            if (index.n_columns != 1 or index.column in out
                    or not index.covers(n_rows)):
                continue
            n_null = len(index.null_rowids)
            distinct = index.n_keys - (1 if n_null else 0)
            out[index.column] = ColumnStats(
                max(1, distinct), n_null / n_rows if n_rows else 0.0
            )
        return out


def _sample_rows(table: Table) -> list:
    """The live rows among the table's first :data:`SAMPLE_CAP` rowids.

    The rowids are copied atomically up front (no row decodes), so a
    concurrent writer never resizes the store mid-sample — estimates may
    be slightly stale, never torn — and a file-backed table never pages
    in more than ``SAMPLE_CAP`` rows.  A paged heap decodes its sample
    page by page (:meth:`Table.scan_chunks` makes that same rowid copy);
    the dict heap looks its rows up directly.
    """
    heap = table.rows
    if isinstance(heap, dict):
        return [row for row in map(heap.get, list(heap)[:SAMPLE_CAP])
                if row is not None]  # None: deleted since the copy
    for _rowids, rows in table.scan_chunks(SAMPLE_CAP):
        return rows
    return []


def _count_distinct(present: list) -> int:
    """Distinct values among ``present`` under plain equality; unhashable
    cells (JSON lists) count by repr, the others still by equality, so 0
    and 0.0 stay one value next to a list."""
    try:
        return len(set(present))
    except TypeError:
        hashable: set = set()
        unhashable: set = set()
        for value in present:
            try:
                hashable.add(value)
            except TypeError:
                unhashable.add(repr(value))
        return len(hashable) + len(unhashable)


def _extrapolate_distinct(d_sample: float, sampled: int, n_rows: int) -> float:
    """Scale a sampled distinct count to the full table.

    Near-unique samples are assumed unique overall; low-cardinality samples
    are assumed to have shown every value (the usual case for categorical
    columns); in between, scale linearly.  Coarse, but it only has to rank
    access paths, not price them.
    """
    if sampled <= 0:
        return 1.0
    if sampled >= n_rows:
        return float(max(1, d_sample))
    ratio = d_sample / sampled
    if ratio > 0.9:
        return float(n_rows) * ratio
    if ratio < 0.1:
        return float(max(1, d_sample))
    return float(d_sample) * (n_rows / sampled) ** 0.5


class StatsManager:
    """Per-database registry of :class:`TableStats`, keyed by table name.

    ``version`` increments whenever any registered table's statistics are
    rebuilt (lazily past the drift threshold, or forced by ``analyze()``).
    Cached plans record the version they were costed against and re-plan
    when it moves — the ``stats_version`` half of the plan-cache key.
    """

    def __init__(self) -> None:
        self._tables: dict[str, TableStats] = {}
        self.version = 0
        self._lock = threading.RLock()

    def _bump(self) -> None:
        self.version += 1

    def for_table(self, table: Table) -> TableStats:
        entry = self._tables.get(table.name)
        if entry is None or entry.table is not table:  # dropped + recreated
            with self._lock:
                entry = self._tables.get(table.name)
                if entry is None or entry.table is not table:
                    entry = TableStats(table, on_rebuild=self._bump,
                                       lock=self._lock)
                    self._tables[table.name] = entry
        return entry

    def forget(self, name: str) -> None:
        self._tables.pop(name, None)

    def analyze(self, table: Table | None = None) -> None:
        """Force an immediate rebuild (all registered tables, or one)."""
        if table is not None:
            self.for_table(table).refresh(force=True)
            return
        for entry in self._tables.values():
            entry.refresh(force=True)


# ---------------------------------------------------------------------------
# selectivity model
# ---------------------------------------------------------------------------


def _stats_column(expr: ast.Expr, table: Table, binding: str | None) -> str | None:
    """Column of ``table`` that ``expr`` references (rowid included)."""
    if not isinstance(expr, ast.ColumnRef):
        return None
    if expr.table is not None and expr.table not in (table.name, binding):
        return None
    if table.schema.has_column(expr.name) or expr.name == "rowid":
        return expr.name
    return None


def conjunct_selectivity(stats: TableStats, conjunct: ast.Expr,
                         binding: str | None = None) -> float:
    """Estimated fraction of rows satisfying one conjunct."""
    table = stats.table
    if isinstance(conjunct, ast.Binary):
        op = conjunct.op
        if op == "AND":
            return (
                conjunct_selectivity(stats, conjunct.left, binding)
                * conjunct_selectivity(stats, conjunct.right, binding)
            )
        if op == "OR":
            a = conjunct_selectivity(stats, conjunct.left, binding)
            b = conjunct_selectivity(stats, conjunct.right, binding)
            return min(1.0, a + b - a * b)
        column = (
            _stats_column(conjunct.left, table, binding)
            or _stats_column(conjunct.right, table, binding)
        )
        if op == "=":
            if column is not None:
                return 1.0 / stats.distinct(column)
            return EQ_DEFAULT
        if op in ("<", "<=", ">", ">="):
            return RANGE_DEFAULT
        if op == "<>":
            if column is not None:
                return 1.0 - 1.0 / stats.distinct(column)
            return 1.0 - EQ_DEFAULT
        return OTHER_DEFAULT
    if isinstance(conjunct, ast.Between):
        return 1.0 - BETWEEN_DEFAULT if conjunct.negated else BETWEEN_DEFAULT
    if isinstance(conjunct, ast.InList):
        column = _stats_column(conjunct.expr, table, binding)
        if column is not None:
            inside = min(1.0, len(conjunct.items) / stats.distinct(column))
        else:
            inside = min(1.0, EQ_DEFAULT * len(conjunct.items))
        return 1.0 - inside if conjunct.negated else inside
    if isinstance(conjunct, ast.IsNull):
        column = _stats_column(conjunct.expr, table, binding)
        fraction = stats.null_fraction(column) if column is not None else 0.1
        return 1.0 - fraction if conjunct.negated else fraction
    if isinstance(conjunct, ast.Like):
        return 1.0 - LIKE_DEFAULT if conjunct.negated else LIKE_DEFAULT
    if isinstance(conjunct, ast.Unary) and conjunct.op == "NOT":
        return 1.0 - conjunct_selectivity(stats, conjunct.operand, binding)
    return OTHER_DEFAULT
