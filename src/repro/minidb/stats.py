"""Table statistics and the selectivity model behind cost-based planning.

The planner (``repro.minidb.planner``) asks two questions this module
answers from lightweight, lazily maintained statistics:

* *How many rows will this scan produce?* — per-table row counts are
  always exact (read live off the table); per-column distinct-value and
  NULL-fraction estimates feed a classic System-R-style selectivity
  model (``1/distinct`` for equality).  Skewed equality keys are priced
  better than that: each column keeps a most-common-values (MCV) list —
  up to :data:`MCV_SLOTS` heavy hitters with their sampled row
  fractions — so ``col = literal`` returns the hitter's true fraction
  on a hit and the residual mass spread over the remaining distincts on
  a miss.  Range and BETWEEN predicates with literal bounds are priced
  off per-column equi-depth histograms (min/max plus
  :data:`HIST_BUCKETS` equal-mass buckets, rebuilt with the rest of the
  sample); parameterized comparands keep the flat defaults so a cached
  plan never depends on one particular binding.
* *How large is this join?* — ``|L| * |R| / max(d_L, d_R)`` per equi
  pair, the estimate that drives greedy join reordering and build-side
  selection.

Maintenance contract: every table mutation bumps ``Table.version`` (one
integer increment on INSERT/UPDATE/DELETE — nothing per-column happens
on the write path), and column estimates are **rebuilt on demand** the
first time the planner asks after the version has drifted past a
staleness threshold.  Rebuilds read exact distinct counts from covering
single-column indexes when available (hash buckets and the B+tree's O(1)
distinct-key counter) and otherwise estimate from a bounded sample of
rows.  ``Database.analyze()`` forces an immediate rebuild.

A rebuild is one columnar pass: the sample (the rows of the first
:data:`SAMPLE_CAP` rowids) is transposed once, and each column is
tallied with one ``Counter`` and sorted once for its histogram, keying
only distinct and boundary values rather than every cell
(:func:`_tally_and_histogram`).  The numbers — distinct counts, NULL
fractions, histogram bounds, MCV lists and their tie order — are the
ones a per-value loop over the sample computes.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from collections import Counter

from repro.minidb import ast_nodes as ast
from repro.minidb.functions import _sort_key
from repro.minidb.hash_index import normalize_key
from repro.minidb.storage import Table

#: rebuild when at least this many mutations landed since the last build...
REBUILD_FLOOR = 64
#: ...and they amount to this fraction of the rows seen at build time
REBUILD_FRACTION = 0.2
#: rebuild scans at most this many rows; larger tables are extrapolated
SAMPLE_CAP = 20_000
#: equi-depth histogram resolution (buckets per column)
HIST_BUCKETS = 32
#: most-common-value slots kept per column
MCV_SLOTS = 8
#: a value joins the MCV list only when its sampled frequency exceeds the
#: column's average frequency by this factor (uniform columns keep none)
MCV_MIN_RATIO = 1.25

# default selectivities when a conjunct's shape gives nothing better
EQ_DEFAULT = 0.1
RANGE_DEFAULT = 0.3
BETWEEN_DEFAULT = 0.25
LIKE_DEFAULT = 0.25
OTHER_DEFAULT = 0.5

#: inequality flipped onto the other operand (``5 < x`` is ``x > 5``)
_FLIP_OP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _hist_key(value):
    """``value`` as a totally ordered key matching SQL comparison rank
    (numbers sort together and below text) — the same shape ORDER BY and
    MIN/MAX use, so histogram lookups agree with runtime comparisons."""
    return _sort_key(value)


class ColumnStats:
    """Distinct-value, NULL-fraction and distribution estimates for one
    column.

    ``bounds`` is an equi-depth histogram: ``b+1`` sorted boundary keys
    delimiting ``b`` buckets of (approximately) equal row mass, built
    from the non-NULL values of the rebuild sample.  ``bounds[0]`` /
    ``bounds[-1]`` double as the column min/max.  ``None`` when the
    column had no non-NULL sample (empty table, all-NULL column, or
    stats built before histograms existed).

    ``mcv`` maps the normalized keys of the column's most common values
    to their sampled *row* fractions (NULL rows included in the
    denominator, so a hit is directly a row selectivity).  ``None`` when
    no value stood out above the uniform baseline — skew-free columns
    carry no list and equality pricing falls back to ``1/distinct``."""

    __slots__ = ("distinct", "null_fraction", "bounds", "mcv")

    def __init__(self, distinct: float, null_fraction: float, bounds=None,
                 mcv=None):
        self.distinct = max(1.0, float(distinct))
        self.null_fraction = min(1.0, max(0.0, float(null_fraction)))
        self.bounds = bounds
        self.mcv = mcv

    @property
    def min_key(self):
        """Smallest sampled non-NULL value (as a sort key), or None."""
        return self.bounds[0] if self.bounds else None

    @property
    def max_key(self):
        """Largest sampled non-NULL value (as a sort key), or None."""
        return self.bounds[-1] if self.bounds else None

    def fraction_below(self, key, inclusive: bool) -> float:
        """Fraction of *non-NULL* values ``< key`` (or ``<= key``).

        Bucket-resolution estimate: the containing bucket contributes a
        linearly interpolated share for numeric boundaries and half a
        bucket otherwise.  Repeated boundaries (heavy hitters) make the
        inclusive/exclusive distinction matter: ``bisect_right`` counts
        the heavy value's whole run, ``bisect_left`` none of it.
        Callers must check :attr:`bounds` is non-empty first.
        """
        bounds = self.bounds
        if len(bounds) < 2:  # degenerate sample: every value identical
            only = bounds[0]
            hit = key >= only if inclusive else key > only
            return 1.0 if hit else 0.0
        cut = (bisect_right(bounds, key) if inclusive
               else bisect_left(bounds, key))
        if cut <= 0:
            return 0.0
        if cut >= len(bounds):
            return 1.0
        lo, hi = bounds[cut - 1], bounds[cut]
        within = 0.5
        if lo[0] == 0 and hi[0] == 0 and key[0] == 0 and hi[1] > lo[1]:
            within = max(0.0, min(1.0, (key[1] - lo[1]) / (hi[1] - lo[1])))
        return min(1.0, (cut - 1 + within) / (len(bounds) - 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnStats(distinct={self.distinct:.0f}, "
            f"null_fraction={self.null_fraction:.3f}, "
            f"buckets={len(self.bounds) - 1 if self.bounds else 0}, "
            f"mcv={len(self.mcv) if self.mcv else 0})"
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
        columns: dict[str, ColumnStats] = {}
        exact = self._from_indexes(n)
        names = table.schema.column_names
        rows = _sample_rows(table) if names and n else []
        sampled = len(rows)
        # one transpose, then every column is tallied as a whole —
        # histograms and MCV lists come off the tally even where an index
        # already gave exact distinct/NULL numbers
        for name, values in zip(names, zip(*rows) if rows else ()):
            present = [value for value in values if value is not None]
            tally, hist = _tally_and_histogram(present)
            mcv = _common_values(tally, sampled)
            base = exact.get(name)
            if base is not None:
                base.bounds = hist
                base.mcv = mcv
                columns[name] = base
            else:
                columns[name] = ColumnStats(
                    _extrapolate_distinct(len(tally), sampled, n),
                    (sampled - len(present)) / sampled,
                    hist,
                    mcv,
                )
        for name in names:
            if name not in columns:
                columns[name] = exact.get(name) or ColumnStats(1.0, 0.0)
        self._columns = columns
        self._built_version = table.version
        self._built_rows = n
        if self.on_rebuild is not None:
            self.on_rebuild()

    def _from_indexes(self, n_rows: int) -> dict[str, ColumnStats]:
        """Exact column stats read straight off single-column indexes."""
        out: dict[str, ColumnStats] = {}
        for index in self.table.indexes.values():
            if index.n_columns != 1 or index.column in out:
                continue
            if index.kind == "btree" and index.covers(n_rows):
                n_null = len(index.null_rowids)
                distinct = index.n_keys - (1 if n_null else 0)
                out[index.column] = ColumnStats(
                    max(1, distinct), n_null / n_rows if n_rows else 0.0
                )
            elif index.kind == "hash" and n_rows:
                # NULLs are not indexed; infer their share from the bucket sum
                n_null = max(0, n_rows - len(index))
                out[index.column] = ColumnStats(
                    max(1, index.n_keys), n_null / n_rows
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


def _tally_and_histogram(present: list) -> tuple:
    """``(tally, bounds)`` for one column's non-NULL sampled values.

    ``tally`` counts each value under its index-equality key
    (:func:`normalize_key`; an unhashable cell counts under its repr),
    in first-seen order, so ``most_common`` breaks ties as it always
    did.  ``bounds`` is the equi-depth histogram over :func:`_hist_key`.

    A column of numbers and text — the common case, dirty numeric
    columns included — is sorted as raw numbers followed by raw text,
    which is :func:`_hist_key` order (``float`` is monotone over the
    numbers), so only the boundary values become keys.  Anything else
    takes per-value keys.
    """
    kinds = set(map(type, present))
    tally = _plain_tally(present, kinds) if kinds <= _PLAIN_TYPES else None
    if tally is None:
        return (Counter(map(_tally_key, present)),
                _equi_depth(sorted(present, key=_hist_key)))
    if str in kinds and len(kinds) > 1:
        ordered = (sorted([v for v in present if type(v) is not str])
                   + sorted([v for v in present if type(v) is str]))
    else:
        ordered = sorted(present)
    return tally, _equi_depth(ordered)


#: the storage types whose raw order and equality agree with the keys
_PLAIN_TYPES = frozenset((int, float, str))
_TEXT_TYPE = frozenset((str,))


def _plain_tally(present: list, kinds: set):
    """The tally of a column holding only numbers and text, or None.

    Raw values are counted first (``1`` and ``1.0`` already share a
    slot) and only the distinct ones are normalized.  None — per-value
    keys needed — for an integer beyond float range or two integers one
    float cannot tell apart (their keys would merge).
    """
    counts = Counter(present)
    if kinds == _TEXT_TYPE:
        return counts
    if str in kinds:
        keys = (key if type(key) is str else float(key) for key in counts)
    else:
        keys = map(float, counts)
    try:
        tally = Counter(dict(zip(keys, counts.values())))
    except OverflowError:  # an integer beyond float range
        return None
    return tally if len(tally) == len(counts) else None


def _tally_key(value):
    """The key ``value`` is tallied (and MCV-looked-up) under."""
    key = normalize_key(value)
    try:
        hash(key)
    except TypeError:  # unhashable cell: key it by repr
        return repr(value)
    return key


def _equi_depth(ordered: list, buckets: int = HIST_BUCKETS):
    """``b+1`` equi-depth boundary keys picked from ``ordered`` (values
    sorted in :func:`_hist_key` order), or None when the sample is
    empty.  ``b`` shrinks to the sample size for tiny samples so
    boundaries stay distinct positions."""
    if not ordered:
        return None
    n = len(ordered)
    b = min(buckets, n)
    return tuple(_hist_key(ordered[(i * (n - 1)) // b]) for i in range(b + 1))


def _common_values(tally: Counter, sampled: int):
    """MCV list for one column: ``{normalized_key: row_fraction}`` for up
    to :data:`MCV_SLOTS` values, or None when nothing is skewed.

    A value qualifies only when it was seen more than once *and* its
    frequency beats the column's average (non-NULL count over distinct
    count) by :data:`MCV_MIN_RATIO` — on a uniform column every value
    sits at the average, so no list is kept and equality pricing stays
    at ``1/distinct``.  Fractions are over all sampled rows (NULLs
    included), making a hit directly usable as a row selectivity.
    """
    if not tally or sampled <= 0:
        return None
    non_null = sum(tally.values())
    threshold = MCV_MIN_RATIO * non_null / len(tally)
    mcv = {
        key: count / sampled
        for key, count in tally.most_common(MCV_SLOTS)
        if count > 1 and count > threshold
    }
    return mcv or None


def _extrapolate_distinct(d_sample: float, sampled: int, n_rows: int) -> float:
    """Scale a sampled distinct count to the full table.

    Near-unique samples are assumed unique overall; low-cardinality samples
    are assumed to have shown every value (the usual case for categorical
    columns); in between, scale linearly.  Coarse, but it only has to rank
    join orders, not price them.
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
            sel = _equality_selectivity(stats, conjunct, binding)
            if sel is not None:
                return sel
            if column is not None:
                return 1.0 / stats.distinct(column)
            return EQ_DEFAULT
        if op in ("<", "<=", ">", ">="):
            sel = _range_selectivity(stats, conjunct, binding)
            return RANGE_DEFAULT if sel is None else sel
        if op == "<>":
            sel = _equality_selectivity(stats, conjunct, binding)
            if sel is not None:
                return 1.0 - sel
            if column is not None:
                return 1.0 - 1.0 / stats.distinct(column)
            return 1.0 - EQ_DEFAULT
        return OTHER_DEFAULT
    if isinstance(conjunct, ast.Between):
        sel = _between_selectivity(stats, conjunct, binding)
        if sel is not None:
            return sel
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


def _column_histogram(stats: TableStats, column: str):
    """The column's :class:`ColumnStats` when it carries a histogram."""
    col_stats = stats.column(column)
    if col_stats is None or not col_stats.bounds:
        return None
    return col_stats


def _equality_selectivity(stats: TableStats, conjunct: ast.Binary,
                          binding: str | None) -> float | None:
    """MCV estimate for ``column = literal`` (either side), or None to
    fall back to the uniform ``1/distinct`` model.

    Like :func:`_range_selectivity`, only :class:`ast.Literal`
    comparands are priced — a parameter slot could hold the heavy hitter
    on one binding and a rare value on the next, and a cached plan must
    not bake either in.  A hit returns the hitter's sampled row
    fraction; a miss spreads the row mass left after NULLs and the MCV
    values over the remaining distincts.
    """
    table = stats.table
    column = _stats_column(conjunct.left, table, binding)
    comparand = conjunct.right
    if column is None:
        column = _stats_column(conjunct.right, table, binding)
        if column is None:
            return None
        comparand = conjunct.left
    if not isinstance(comparand, ast.Literal):
        return None
    if comparand.value is None:
        return 0.0  # ``= NULL`` is never true
    col_stats = stats.column(column)
    if col_stats is None or not col_stats.mcv:
        return None
    hit = col_stats.mcv.get(_tally_key(comparand.value))
    if hit is not None:
        return min(1.0, hit)
    rest = max(
        0.0,
        1.0 - col_stats.null_fraction - sum(col_stats.mcv.values()),
    )
    return rest / max(1.0, col_stats.distinct - len(col_stats.mcv))


def _range_selectivity(stats: TableStats, conjunct: ast.Binary,
                       binding: str | None) -> float | None:
    """Histogram estimate for ``column <op> literal`` (either side), or
    None to fall back to the flat default.

    Only :class:`ast.Literal` bounds are priced — a parameter slot's
    value is unknown at plan time, and pricing one binding would bake it
    into a cached plan every other binding then reuses.
    """
    table = stats.table
    op = conjunct.op
    column = _stats_column(conjunct.left, table, binding)
    bound_expr = conjunct.right
    if column is None:
        column = _stats_column(conjunct.right, table, binding)
        if column is None:
            return None
        bound_expr = conjunct.left
        op = _FLIP_OP[op]
    if not isinstance(bound_expr, ast.Literal):
        return None
    if bound_expr.value is None:
        return 0.0  # comparison with NULL is never true
    col_stats = _column_histogram(stats, column)
    if col_stats is None:
        return None
    key = _hist_key(bound_expr.value)
    if op == "<":
        frac = col_stats.fraction_below(key, inclusive=False)
    elif op == "<=":
        frac = col_stats.fraction_below(key, inclusive=True)
    elif op == ">":
        frac = 1.0 - col_stats.fraction_below(key, inclusive=True)
    else:  # ">="
        frac = 1.0 - col_stats.fraction_below(key, inclusive=False)
    # the histogram covers non-NULL values only; NULLs fail the predicate
    return frac * (1.0 - col_stats.null_fraction)


def _between_selectivity(stats: TableStats, conjunct: ast.Between,
                         binding: str | None) -> float | None:
    """Histogram estimate for ``column [NOT] BETWEEN lit AND lit``."""
    column = _stats_column(conjunct.expr, stats.table, binding)
    if column is None:
        return None
    if not (isinstance(conjunct.low, ast.Literal)
            and isinstance(conjunct.high, ast.Literal)):
        return None
    low, high = conjunct.low.value, conjunct.high.value
    if low is None or high is None:
        # a NULL bound makes BETWEEN (and NOT BETWEEN) never true
        return 0.0
    col_stats = _column_histogram(stats, column)
    if col_stats is None:
        return None
    inside = max(
        0.0,
        col_stats.fraction_below(_hist_key(high), inclusive=True)
        - col_stats.fraction_below(_hist_key(low), inclusive=False),
    )
    non_null = 1.0 - col_stats.null_fraction
    # NOT BETWEEN is still false for NULL rows: complement within non-NULLs
    return non_null * (1.0 - inside if conjunct.negated else inside)


def estimate_filtered_rows(stats: TableStats, conjuncts,
                           binding: str | None = None) -> float:
    """Estimated rows of the table surviving ``conjuncts`` (>= 0)."""
    rows = float(stats.n_rows)
    for conjunct in conjuncts:
        rows *= conjunct_selectivity(stats, conjunct, binding)
    return rows


def estimate_join_rows(left_rows: float, right_rows: float,
                       key_distincts) -> float:
    """Classic equi-join estimate: ``|L|*|R| / prod(max(d_l, d_r))``.

    ``key_distincts`` is an iterable of ``(left_distinct, right_distinct)``
    pairs, one per equi-join key; empty means a cross product.
    """
    rows = left_rows * right_rows
    for d_left, d_right in key_distincts:
        rows /= max(d_left, d_right, 1.0)
    return rows
