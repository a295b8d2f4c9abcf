"""Access-path selection for minidb.

Given a table, a WHERE expression, and the query's ORDER BY shape, the
planner picks the cheapest scan:

1. rowid point lookups;
2. a composite B+tree walk matching *equality-prefix + order-suffix* —
   ``WHERE cat = ? ORDER BY val [DESC] LIMIT k`` on an index over
   ``(cat, val)`` becomes one bounded leaf walk (backward for DESC),
   with no sort or top-k operator downstream;
3. full equality over every column of a multi-column index;
4. equality on a hash-indexed column, then on a B+tree-indexed column;
5. ``IN`` list over an indexed column (union of point lookups);
6. ``IS NULL`` on a B+tree-indexed column (the index tracks its NULL
   rowids, so the predicate is a point lookup);
7. range predicates (``<``, ``<=``, ``>``, ``>=``, ``BETWEEN``) on a
   B+tree-indexed column, with bounds merged across conjuncts;
8. an equality-prefix walk of a composite index even when it leaves the
   order unsatisfied (it still touches only the matching group);
9. a full B+tree walk in key order — forward or backward — when it
   satisfies the ``ORDER BY`` (so ``ORDER BY indexed_col [DESC] LIMIT k``
   touches only ``k`` rows);
10. otherwise a sequential scan.

Because B+tree indexes are NULL-aware (every row is indexed; NULL keys
sort first, exactly like the executor's sort keys), ordered walks stay
valid on nullable columns.  A plan also reports ``order_satisfied`` when
every ORDER BY column is pinned by an equality conjunct, letting the
executor drop the sort for ``WHERE cat = ? ORDER BY cat``.

Unused conjuncts become a residual filter.  This is the machinery behind the
paper's Table 1 asymmetry: Buckaroo's group lookups (``WHERE country = ?``)
and the zoom engine's viewport queries (``WHERE x BETWEEN ? AND ?``) all
resolve to index scans touching only the relevant rows.

The second half of the module is the **cost-based SELECT planner**
(:func:`plan_select`): a two-stage pipeline that first analyzes the
statement logically (bindings, conjunct classification, aggregate
rewriting) and then builds a physical plan tree
(:mod:`repro.minidb.plan_nodes`) using the statistics layer
(:mod:`repro.minidb.stats`) to

* greedily reorder all-INNER equi-joins (smallest estimated input joins
  first, smaller side becomes the hash build side),
* push single-table WHERE/ON conjuncts into each table's scan,
* choose a :class:`~repro.minidb.plan_nodes.MergeJoin` when both inputs
  arrive index-ordered on the join key (preserving key order through to
  ORDER BY elision), and
* choose a :class:`~repro.minidb.plan_nodes.StreamAggregate` when the
  GROUP BY input is already ordered on the grouping columns.

The executor is a dispatcher over the resulting tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PlanningError
from repro.minidb import ast_nodes as ast
from repro.minidb import plan_nodes as nodes
from repro.minidb.expressions import (
    Resolver,
    compile_expr,
    compile_filter_kernels,
    find_aggregates,
    render_expr,
)
from repro.minidb.functions import is_aggregate
from repro.minidb.stats import (
    StatsManager,
    conjunct_selectivity,
    estimate_filtered_rows,
    estimate_join_rows,
)
from repro.minidb.storage import Table
from repro.minidb.vector import BATCH_AGGREGATES

SEQ = "seq"
INDEX_EQ = "index_eq"
INDEX_IN = "index_in"
INDEX_RANGE = "index_range"
INDEX_ORDER = "index_order"
INDEX_PREFIX = "index_prefix"
INDEX_NULL = "index_null"
ROWID_EQ = "rowid_eq"
ROWID_IN = "rowid_in"

#: estimated rows below which batch mode is not worth the transpose (auto mode)
VECTOR_MIN_ROWS = 512.0

#: relative per-row costs for the index-vs-seq demotion gate: a B+tree
#: range walk (or an equality probe's rowid chase) pointer-chases leaves
#: and does a heap lookup per hit, roughly twice the cost of streaming
#: the heap in storage order
SEQ_ROW_COST = 1.0
INDEX_RANGE_ROW_COST = 2.0
#: tables smaller than this never demote: both paths are trivially cheap
#: and the index walk's constant factors don't matter at this size
DEMOTE_MIN_ROWS = 128


@dataclass
class ScanPlan:
    """A chosen access path plus any residual predicate."""

    table: str
    kind: str = SEQ
    index_name: str | None = None
    column: str | None = None
    columns: tuple = ()  # index key columns (composite paths)
    eq_expr: ast.Expr | None = None
    prefix_exprs: tuple = ()  # equality values for the leading index columns
    in_exprs: tuple = ()
    low_expr: ast.Expr | None = None
    high_expr: ast.Expr | None = None
    include_low: bool = True
    include_high: bool = True
    descending: bool = False  # walk the index backward (ORDER BY ... DESC)
    residual: ast.Expr | None = None
    order_satisfied: bool = False  # scan output already matches the ORDER BY

    def describe(self, include_residual: bool = True) -> str:
        """Human-readable one-line plan description (used by EXPLAIN).

        ``include_residual=False`` omits the ``+ Filter`` suffix — the plan
        tree renders the residual as its own :class:`~repro.minidb.plan_nodes.Filter`
        node instead.
        """
        if self.kind == SEQ:
            base = f"SeqScan({self.table})"
        elif self.kind == INDEX_ORDER:
            base = (
                f"IndexOrderScan({self.table}.{self._key_text()} "
                f"via {self.index_name}{', DESC' if self.descending else ''})"
            )
        elif self.kind == INDEX_PREFIX:
            if len(self.prefix_exprs) == len(self.columns):
                base = (
                    f"IndexEqScan({self.table}.{self._key_text()} "
                    f"via {self.index_name}, {len(self.prefix_exprs)} cols)"
                )
            else:
                bounds = ""
                if self.low_expr is not None or self.high_expr is not None:
                    low = "-inf" if self.low_expr is None else "?"
                    high = "+inf" if self.high_expr is None else "?"
                    bounds = f", range={low}..{high}"
                base = (
                    f"IndexOrderScan({self.table}.{self._key_text()} "
                    f"via {self.index_name}, eq_prefix={len(self.prefix_exprs)}"
                    f"{bounds}{', DESC' if self.descending else ''})"
                )
        elif self.kind == INDEX_NULL:
            base = f"IndexNullScan({self.table}.{self.column} via {self.index_name})"
        elif self.kind == ROWID_EQ:
            base = f"RowidLookup({self.table})"
        elif self.kind == ROWID_IN:
            base = f"RowidLookup({self.table}, {len(self.in_exprs)} keys)"
        elif self.kind == INDEX_EQ:
            base = f"IndexEqScan({self.table}.{self.column} via {self.index_name})"
        elif self.kind == INDEX_IN:
            base = (
                f"IndexInScan({self.table}.{self.column} via {self.index_name}, "
                f"{len(self.in_exprs)} keys)"
            )
        else:
            low = "-inf" if self.low_expr is None else "?"
            high = "+inf" if self.high_expr is None else "?"
            base = (
                f"IndexRangeScan({self.table}.{self.column} via {self.index_name}, "
                f"{low}..{high}{', DESC' if self.descending else ''})"
            )
        if include_residual and self.residual is not None:
            base += " + Filter"
        return base

    def _key_text(self) -> str:
        if len(self.columns) > 1:
            return f"({', '.join(self.columns)})"
        return self.columns[0] if self.columns else self.column


def split_conjuncts(expr: ast.Expr | None) -> list[ast.Expr]:
    """Flatten nested ANDs into a conjunct list (empty for None)."""
    if expr is None:
        return []
    if isinstance(expr, ast.Binary) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: list[ast.Expr]) -> ast.Expr | None:
    """Rebuild an AND tree from a conjunct list (None when empty)."""
    if not conjuncts:
        return None
    expr = conjuncts[0]
    for conjunct in conjuncts[1:]:
        expr = ast.Binary("AND", expr, conjunct)
    return expr


def _is_value_expr(expr: ast.Expr) -> bool:
    """True when ``expr`` is evaluable without a row (literals/params only)."""
    return all(
        not isinstance(node, (ast.ColumnRef, ast.SlotRef, ast.FuncCall))
        for node in ast.walk(expr)
    )


_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _column_of(expr: ast.Expr, table: Table,
               binding: str | None = None) -> str | None:
    """Column name when ``expr`` is a reference to a column of ``table``."""
    if isinstance(expr, ast.ColumnRef) and table.schema.has_column(expr.name):
        if expr.table is None or expr.table in (table.name, binding):
            return expr.name
    return None


def _is_rowid_ref(expr: ast.Expr, table: Table,
                  binding: str | None = None) -> bool:
    """True when ``expr`` is the rowid pseudo-column of ``table``."""
    return (
        isinstance(expr, ast.ColumnRef)
        and expr.name == "rowid"
        and not table.schema.has_column("rowid")
        and (expr.table is None or expr.table in (table.name, binding))
    )


def plan_scan(table: Table, where: ast.Expr | None,
              binding: str | None = None,
              order_spec: list | None = None) -> ScanPlan:
    """Choose an access path for ``table`` under predicate ``where``.

    ``order_spec`` is the caller's ORDER BY shape as ``(column, ascending)``
    pairs (None when the order cannot be served by a scan).  The planner
    prefers plans whose output order already satisfies it — marked via
    ``order_satisfied`` — so the executor can drop its sort/top-k stage.
    """
    conjuncts = split_conjuncts(where)
    eq_candidates: list[tuple[int, str, ast.Expr, int]] = []  # (score, col, value, idx)
    eq_map: dict[str, tuple[ast.Expr, int]] = {}  # every equality conjunct
    in_candidates: list[tuple[str, tuple, int]] = []
    null_candidates: list[tuple[str, int]] = []  # (col, idx) for IS NULL
    bounds: dict[str, dict] = {}

    # rowid point lookups beat every index — resolve them first
    for i, conjunct in enumerate(conjuncts):
        if isinstance(conjunct, ast.Binary) and conjunct.op == "=":
            if _is_rowid_ref(conjunct.left, table, binding) and _is_value_expr(conjunct.right):
                value = conjunct.right
            elif _is_rowid_ref(conjunct.right, table, binding) and _is_value_expr(conjunct.left):
                value = conjunct.left
            else:
                continue
            residual = conjoin([c for j, c in enumerate(conjuncts) if j != i])
            return ScanPlan(
                table=table.name, kind=ROWID_EQ, eq_expr=value, residual=residual,
                order_satisfied=order_spec is not None,  # at most one row
            )
        if isinstance(conjunct, ast.InList) and not conjunct.negated:
            if _is_rowid_ref(conjunct.expr, table, binding) and all(
                _is_value_expr(item) for item in conjunct.items
            ):
                residual = conjoin([c for j, c in enumerate(conjuncts) if j != i])
                return ScanPlan(
                    table=table.name, kind=ROWID_IN, in_exprs=conjunct.items,
                    residual=residual,
                )

    for i, conjunct in enumerate(conjuncts):
        if isinstance(conjunct, ast.Binary) and conjunct.op in ("=", "<", "<=", ">", ">="):
            left_col = _column_of(conjunct.left, table, binding)
            right_col = _column_of(conjunct.right, table, binding)
            if left_col and _is_value_expr(conjunct.right):
                column, value, op = left_col, conjunct.right, conjunct.op
            elif right_col and _is_value_expr(conjunct.left):
                column, value, op = right_col, conjunct.left, _FLIPPED.get(conjunct.op, "=")
            else:
                continue
            if op == "=":
                eq_map.setdefault(column, (value, i))
                indexes = table.indexes_on(column)
                if indexes:
                    score = 100 if any(ix.kind == "hash" for ix in indexes) else 90
                    eq_candidates.append((score, column, value, i))
            else:
                entry = bounds.setdefault(
                    column,
                    {"low": None, "high": None, "incl_low": True, "incl_high": True,
                     "conjuncts": []},
                )
                # bound values are expressions (often parameters), so two
                # conjuncts on the same side cannot be compared at plan
                # time: the scan consumes the first, the rest stay residual
                if op in (">", ">="):
                    if entry["low"] is not None:
                        continue
                    entry["low"] = value
                    entry["incl_low"] = op == ">="
                else:
                    if entry["high"] is not None:
                        continue
                    entry["high"] = value
                    entry["incl_high"] = op == "<="
                entry["conjuncts"].append(i)
        elif isinstance(conjunct, ast.Between) and not conjunct.negated:
            column = _column_of(conjunct.expr, table, binding)
            if column and _is_value_expr(conjunct.low) and _is_value_expr(conjunct.high):
                entry = bounds.setdefault(
                    column,
                    {"low": None, "high": None, "incl_low": True, "incl_high": True,
                     "conjuncts": []},
                )
                if entry["low"] is not None or entry["high"] is not None:
                    continue  # a side is taken; this BETWEEN stays residual
                entry["low"] = conjunct.low
                entry["high"] = conjunct.high
                entry["incl_low"] = entry["incl_high"] = True
                entry["conjuncts"].append(i)
        elif isinstance(conjunct, ast.InList) and not conjunct.negated:
            column = _column_of(conjunct.expr, table, binding)
            if column and all(_is_value_expr(item) for item in conjunct.items):
                if table.indexes_on(column):
                    in_candidates.append((column, conjunct.items, i))
        elif isinstance(conjunct, ast.IsNull) and not conjunct.negated:
            column = _column_of(conjunct.expr, table, binding)
            if column:
                null_candidates.append((column, i))

    # ORDER BY columns pinned by an equality are constant across the output;
    # what remains is the order the scan itself must produce
    effective_order: list = []
    if order_spec:
        seen_cols: set[str] = set()
        for column, ascending in order_spec:
            if column in eq_map or column in seen_cols:
                continue  # constant column / repeated key: ordering is a no-op
            seen_cols.add(column)
            effective_order.append((column, ascending))
    trivial_order = bool(order_spec) and not effective_order

    def finalize(plan: ScanPlan) -> ScanPlan:
        if trivial_order:
            plan.order_satisfied = True
        return plan

    # equality-prefix + order-suffix over composite (and single) B+trees:
    # `WHERE cat = ? ORDER BY val DESC` on (cat, val) is one bounded walk
    walk = _match_ordered_walk(table, eq_map, effective_order)
    if walk is not None and walk[1] > 0:
        return _prefix_plan(table, conjuncts, eq_map, *walk,
                            order_satisfied=True, bounds=bounds)

    # full equality across every column of a multi-column index
    full_eq = _match_full_equality(table, eq_map)
    if full_eq is not None:
        index, prefix_cols = full_eq
        used = {eq_map[c][1] for c in prefix_cols}
        residual = conjoin([c for j, c in enumerate(conjuncts) if j not in used])
        return finalize(ScanPlan(
            table=table.name, kind=INDEX_PREFIX, index_name=index.name,
            column=index.columns[0], columns=index.columns,
            prefix_exprs=tuple(eq_map[c][0] for c in prefix_cols),
            residual=residual,
        ))

    # best single-column equality
    if eq_candidates:
        eq_candidates.sort(reverse=True, key=lambda c: c[0])
        _, column, value, used = eq_candidates[0]
        index = _best_index(table, column, prefer="hash")
        residual = conjoin([c for j, c in enumerate(conjuncts) if j != used])
        return finalize(ScanPlan(
            table=table.name, kind=INDEX_EQ, index_name=index.name, column=column,
            eq_expr=value, residual=residual,
        ))
    if in_candidates:
        column, items, used = in_candidates[0]
        index = _best_index(table, column, prefer="hash")
        residual = conjoin([c for j, c in enumerate(conjuncts) if j != used])
        return finalize(ScanPlan(
            table=table.name, kind=INDEX_IN, index_name=index.name, column=column,
            in_exprs=items, residual=residual,
        ))
    for column, used in null_candidates:
        btree = _best_index(table, column, prefer="btree", require_btree=True)
        if btree is None or not btree.covers(table.n_rows):
            continue
        residual = conjoin([c for j, c in enumerate(conjuncts) if j != used])
        return finalize(ScanPlan(
            table=table.name, kind=INDEX_NULL, index_name=btree.name, column=column,
            residual=residual,
        ))
    for column, entry in bounds.items():
        btree = _best_index(table, column, prefer="btree", require_btree=True)
        if btree is None:
            continue
        used = set(entry["conjuncts"])
        residual = conjoin([c for j, c in enumerate(conjuncts) if j not in used])
        descending = effective_order == [(column, False)]
        return finalize(ScanPlan(
            table=table.name, kind=INDEX_RANGE, index_name=btree.name, column=column,
            low_expr=entry["low"], high_expr=entry["high"],
            include_low=entry["incl_low"], include_high=entry["incl_high"],
            descending=descending, residual=residual,
            order_satisfied=descending or effective_order == [(column, True)],
        ))
    # equality-prefix walk of a composite index, order notwithstanding:
    # still confines the scan to the matching group
    prefix = _match_longest_prefix(table, eq_map)
    if prefix is not None:
        index, k = prefix
        return finalize(_prefix_plan(
            table, conjuncts, eq_map, index, k, False, order_satisfied=False,
            bounds=bounds,
        ))
    if walk is not None:  # ordered walk with no equality prefix
        index, _k, descending = walk
        entry = bounds.get(index.columns[0])
        if entry is not None:
            # range + order fusion without a prefix: seed the full-index
            # walk at the range bound on the leading column
            used = set(entry["conjuncts"])
            residual = conjoin([c for j, c in enumerate(conjuncts) if j not in used])
            return ScanPlan(
                table=table.name, kind=INDEX_PREFIX, index_name=index.name,
                column=index.columns[0], columns=index.columns,
                prefix_exprs=(),
                low_expr=entry["low"], high_expr=entry["high"],
                include_low=entry["incl_low"], include_high=entry["incl_high"],
                descending=descending, residual=residual,
                order_satisfied=True,
            )
        return ScanPlan(
            table=table.name, kind=INDEX_ORDER, index_name=index.name,
            column=index.columns[0], columns=index.columns,
            descending=descending, residual=where,
            order_satisfied=True,
        )
    return finalize(ScanPlan(table=table.name, kind=SEQ, residual=where))


def _match_ordered_walk(table: Table, eq_map: dict, effective_order: list):
    """The B+tree index (if any) whose key order serves the ORDER BY after
    an equality prefix: returns ``(index, prefix_len, descending)``.

    The index columns past the equality prefix must start with exactly the
    residual ORDER BY columns, all in one direction (ascending → forward
    leaf walk, descending → backward).  The index must cover every table
    row — always true for maintained indexes, which are NULL-aware.
    """
    if not effective_order:
        return None
    directions = {ascending for _, ascending in effective_order}
    if len(directions) != 1:
        return None
    descending = not directions.pop()
    best = None
    for index in table.btree_indexes():
        if not index.covers(table.n_rows):
            continue
        k = _eq_prefix_len(index.columns, eq_map)
        suffix = index.columns[k:]
        m = len(effective_order)
        if len(suffix) < m:
            continue
        if any(suffix[i] != effective_order[i][0] for i in range(m)):
            continue
        # rank: longest equality prefix, then tightest index (fewest columns)
        rank = (k, -index.n_columns)
        if best is None or rank > best[0]:
            best = (rank, (index, k, descending))
    return best[1] if best is not None else None


def _match_full_equality(table: Table, eq_map: dict):
    """A multi-column index every column of which is equality-bound."""
    best = None
    for index in table.indexes.values():
        if index.n_columns < 2:
            continue
        if any(column not in eq_map for column in index.columns):
            continue
        rank = (index.n_columns, index.kind == "hash")
        if best is None or rank > best[0]:
            best = (rank, (index, index.columns))
    return best[1] if best is not None else None


def _match_longest_prefix(table: Table, eq_map: dict):
    """The composite B+tree with the longest equality-bound leading prefix."""
    best = None
    for index in table.btree_indexes():
        if index.n_columns < 2 or not index.covers(table.n_rows):
            continue
        k = _eq_prefix_len(index.columns, eq_map)
        if k == 0:
            continue
        rank = (k, -index.n_columns)
        if best is None or rank > best[0]:
            best = (rank, (index, k))
    return best[1] if best is not None else None


def _eq_prefix_len(columns: tuple, eq_map: dict) -> int:
    k = 0
    while k < len(columns) and columns[k] in eq_map:
        k += 1
    return k


def _prefix_plan(table: Table, conjuncts: list, eq_map: dict, index, k: int,
                 descending: bool, order_satisfied: bool,
                 bounds: dict | None = None) -> ScanPlan:
    prefix_cols = index.columns[:k]
    used = {eq_map[c][1] for c in prefix_cols}
    low_expr = high_expr = None
    include_low = include_high = True
    if bounds and k < index.n_columns:
        # range + order fusion: a range conjunct on the column right after
        # the equality prefix seeds the leaf walk at the bound instead of
        # surviving as a residual filter (hash full-equality paths never
        # reach here with k < n_columns, so the index is a B+tree)
        entry = bounds.get(index.columns[k])
        if entry is not None and index.kind == "btree":
            low_expr, high_expr = entry["low"], entry["high"]
            include_low, include_high = entry["incl_low"], entry["incl_high"]
            used |= set(entry["conjuncts"])
    residual = conjoin([c for j, c in enumerate(conjuncts) if j not in used])
    return ScanPlan(
        table=table.name, kind=INDEX_PREFIX, index_name=index.name,
        column=index.columns[0], columns=index.columns,
        prefix_exprs=tuple(eq_map[c][0] for c in prefix_cols),
        low_expr=low_expr, high_expr=high_expr,
        include_low=include_low, include_high=include_high,
        descending=descending, residual=residual,
        order_satisfied=order_satisfied,
    )


def _best_index(table: Table, column: str, prefer: str,
                require_btree: bool = False):
    indexes = table.indexes_on(column)
    if require_btree:
        indexes = [ix for ix in indexes if ix.kind == "btree"]
        return indexes[0] if indexes else None
    preferred = [ix for ix in indexes if ix.kind == prefer]
    return preferred[0] if preferred else indexes[0]


# ---------------------------------------------------------------------------
# join planning
# ---------------------------------------------------------------------------


def _resolved_positions(expr: ast.Expr, resolver) -> list[int] | None:
    """Row positions of every column reference, or None when any fails.

    A failed resolution (unknown or ambiguous column) is not an error here:
    the conjunct simply stays in the residual, where compiling it surfaces
    the same :class:`PlanningError` the executor has always raised.
    """
    positions = []
    for node in ast.walk(expr):
        if isinstance(node, ast.ColumnRef):
            try:
                positions.append(resolver.resolve(node))
            except PlanningError:
                return None
    return positions


def split_join_condition(on: ast.Expr, resolver, join_offset: int,
                         width: int):
    """Decompose an ``ON`` clause for a hash join against the table at
    ``join_offset`` (occupying ``width`` row slots).

    Returns ``(pairs, right_only, residual)``:

    * ``pairs`` — ``(left_pos, right_pos)`` equi-join key positions, with
      ``right_pos`` absolute in the combined row (the executor rebases it);
    * ``right_only`` — conjuncts referencing only the newly joined table,
      applicable while building the hash table (INNER joins only);
    * ``residual`` — everything else, evaluated per candidate pair.

    An empty ``pairs`` means no hash join is possible and the caller must
    fall back to a nested loop over the full ``ON`` expression.
    """
    pairs: list[tuple[int, int]] = []
    right_only: list[ast.Expr] = []
    residual: list[ast.Expr] = []
    end = join_offset + width
    for conjunct in split_conjuncts(on):
        positions = _resolved_positions(conjunct, resolver)
        if (
            positions is not None
            and isinstance(conjunct, ast.Binary) and conjunct.op == "="
            and isinstance(conjunct.left, ast.ColumnRef)
            and isinstance(conjunct.right, ast.ColumnRef)
        ):
            left_pos, right_pos = positions
            if left_pos >= join_offset:
                left_pos, right_pos = right_pos, left_pos
            if left_pos < join_offset <= right_pos < end:
                pairs.append((left_pos, right_pos))
                continue
        if positions and all(join_offset <= p < end for p in positions):
            right_only.append(conjunct)
        else:
            residual.append(conjunct)
    return pairs, right_only, residual


def partition_conjuncts(where: ast.Expr | None, resolver, boundary: int):
    """Split ``where`` into (pushable, remainder) around a join boundary.

    Conjuncts whose column references all land below ``boundary`` (i.e. on
    the base table) are safe to evaluate before the join — for INNER joins
    trivially, and for LEFT joins because the left side is the preserved
    side.  Both halves come back re-conjoined (None when empty).
    """
    pushable: list[ast.Expr] = []
    remainder: list[ast.Expr] = []
    for conjunct in split_conjuncts(where):
        positions = _resolved_positions(conjunct, resolver)
        if positions is not None and all(p < boundary for p in positions):
            pushable.append(conjunct)
        else:
            remainder.append(conjunct)
    return conjoin(pushable), conjoin(remainder)


# ---------------------------------------------------------------------------
# cost-based SELECT planning: logical analysis -> physical plan tree
# ---------------------------------------------------------------------------

#: steer the driver scan into join-key order (enabling a merge join) only
#: when the hash build it avoids is at least this many estimated rows...
MERGE_MIN_BUILD_ROWS = 256
#: ...and at least this fraction of the estimated probe stream
MERGE_STEER_RATIO = 0.25


class SelectPlan:
    """A compiled physical plan for one SELECT statement.

    ``tables`` names every base table the plan reads — the plan cache
    pokes their lazy statistics before reuse so a pending rebuild
    invalidates the plan rather than executing against drifted estimates.
    """

    __slots__ = ("stmt", "root", "names", "resolver", "items", "tables")

    def __init__(self, stmt, root, names, resolver, items, tables=()):
        self.stmt = stmt
        self.root = root
        self.names = names
        self.resolver = resolver
        self.items = items
        self.tables = tables


class _TableSlot:
    """One FROM-list entry: binding, storage, and per-table planning state."""

    __slots__ = ("binding", "table", "join", "stats", "pushed", "offset",
                 "width", "est_out")

    def __init__(self, binding: str, table: Table, join):
        self.binding = binding
        self.table = table
        self.join = join  # the ast.Join that introduced it (None for base)
        self.stats = None
        self.pushed: list[ast.Expr] = []  # single-table conjuncts for the scan
        self.offset = 0
        self.width = 1 + len(table.schema.columns)
        self.est_out = 0.0


class _ConjunctPool:
    """WHERE + ON conjuncts of an all-INNER join query, classified."""

    __slots__ = ("edges", "multi", "post")

    def __init__(self):
        # (binding_a, col_a, binding_b, col_b, conjunct) equi-join edges
        self.edges: list[tuple] = []
        # (frozenset of bindings, conjunct) placed at the earliest join step
        self.multi: list[tuple] = []
        # conjuncts that failed to resolve; compiling them at the end
        # surfaces the same PlanningError the executor always raised
        self.post: list[ast.Expr] = []


class _JoinStepSpec:
    """One join step in execution order (reordered all-INNER planning)."""

    __slots__ = ("slot", "pairs", "residuals", "right_plan", "right_ests")

    def __init__(self, slot, pairs, residuals):
        self.slot = slot
        self.pairs = pairs  # (left_binding, left_col, right_col)
        self.residuals = residuals
        # the build side's (plan, (path_est, out_est)) once computed, so
        # merge steering and node construction plan the scan exactly once
        self.right_plan = None
        self.right_ests = None


def _layout(table: Table, offset: int) -> dict[str, int]:
    mapping = {
        name: offset + 1 + i for i, name in enumerate(table.schema.column_names)
    }
    mapping.setdefault("rowid", offset)
    return mapping


def _expand_stars(items, bindings) -> list[ast.SelectItem]:
    expanded: list[ast.SelectItem] = []
    for item in items:
        if not item.is_star:
            expanded.append(item)
            continue
        targets = [item.star_table] if item.star_table else list(bindings)
        for binding in targets:
            if binding not in bindings:
                raise PlanningError(f"unknown table {binding!r} in select list")
            for column, position in bindings[binding].items():
                if column == "rowid":
                    continue
                expanded.append(
                    ast.SelectItem(expr=ast.ColumnRef(binding, column), alias=column)
                )
    return expanded


def output_name(item: ast.SelectItem) -> str:
    """The result-column name of one select item (alias, column, or text)."""
    if item.alias:
        return item.alias
    expr = item.expr
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    return render_expr(expr)


def _limit_literal(expr) -> int | None:
    """The literal LIMIT/OFFSET value, when statically known."""
    if (
        isinstance(expr, ast.Literal)
        and isinstance(expr.value, int)
        and not isinstance(expr.value, bool)
    ):
        return expr.value
    return None


# -- conjunct classification and greedy join ordering -----------------------


def _classify_conjuncts(stmt: ast.SelectStmt, slots, by_binding) -> _ConjunctPool:
    """Split WHERE + all ON clauses of an all-INNER query into per-table
    pushdowns (stored on the slots), equi-join edges, multi-table
    residuals, and unresolvable leftovers."""
    pool = _ConjunctPool()
    owners: dict[str, list[str]] = {}
    for slot in slots:
        for name in slot.table.schema.column_names:
            owners.setdefault(name, []).append(slot.binding)

    def binding_of(ref: ast.ColumnRef) -> str | None:
        if ref.table is not None:
            slot = by_binding.get(ref.table)
            if slot is None:
                return None
            if slot.table.schema.has_column(ref.name):
                return slot.binding
            if ref.name == "rowid":
                return slot.binding
            return None
        found = owners.get(ref.name)
        if found is not None and len(found) == 1:
            return found[0]
        return None  # unknown or ambiguous: defer to compile-time error

    conjuncts = split_conjuncts(stmt.where)
    for join in stmt.joins:
        conjuncts.extend(split_conjuncts(join.on))
    for conjunct in conjuncts:
        used: set[str] = set()
        resolvable = True
        for node in ast.walk(conjunct):
            if isinstance(node, ast.ColumnRef):
                binding = binding_of(node)
                if binding is None:
                    resolvable = False
                    break
                used.add(binding)
        if not resolvable:
            pool.post.append(conjunct)
            continue
        if (
            isinstance(conjunct, ast.Binary) and conjunct.op == "="
            and isinstance(conjunct.left, ast.ColumnRef)
            and isinstance(conjunct.right, ast.ColumnRef)
            and len(used) == 2
        ):
            pool.edges.append((
                binding_of(conjunct.left), conjunct.left.name,
                binding_of(conjunct.right), conjunct.right.name, conjunct,
            ))
            continue
        if len(used) == 1:
            by_binding[next(iter(used))].pushed.append(conjunct)
        else:  # constant predicates (empty set) ride along to the first step
            pool.multi.append((frozenset(used), conjunct))
    return pool


def _greedy_join_order(slots, by_binding, pool: _ConjunctPool):
    """System-R-flavoured greedy left-deep ordering.

    Start with the connected pair whose estimated join output is smallest
    (the larger input streams, the smaller becomes the first build side),
    then repeatedly add the connected table minimizing the next estimated
    intermediate size.  Disconnected tables come last as cross products.
    """
    syn_index = {slot.binding: i for i, slot in enumerate(slots)}
    est: dict[str, float] = {}
    for slot in slots:
        slot.est_out = estimate_filtered_rows(slot.stats, slot.pushed, slot.binding)
        est[slot.binding] = slot.est_out

    edges_between: dict[frozenset, list] = {}
    for lb, lc, rb, rc, _conjunct in pool.edges:
        edges_between.setdefault(frozenset((lb, rb)), []).append((lb, lc, rb, rc))

    def pair_distincts(pairs):
        return [
            (by_binding[lb].stats.distinct(lc), by_binding[rb].stats.distinct(rc))
            for lb, lc, rb, rc in pairs
        ]

    best = None
    for key, pairs in edges_between.items():
        a, b = sorted(key, key=lambda binding: syn_index[binding])
        out = estimate_join_rows(est[a], est[b], pair_distincts(pairs))
        rank = (out, min(est[a], est[b]), syn_index[a], syn_index[b])
        if best is None or rank < best[0]:
            # larger input streams, smaller becomes the build side; a tie
            # keeps the syntactic orientation (a precedes b)
            driver, build = (a, b) if est[a] >= est[b] else (b, a)
            best = (rank, driver, build, out)
    _rank, driver, build, current = best
    order = [driver, build]
    placed = {driver, build}
    remaining = [slot.binding for slot in slots if slot.binding not in placed]
    while remaining:
        choice = None
        for cand in remaining:
            pairs = []
            for other in placed:
                pairs.extend(edges_between.get(frozenset((cand, other)), ()))
            if not pairs:
                continue
            out = estimate_join_rows(current, est[cand], pair_distincts(pairs))
            rank = (out, est[cand], syn_index[cand])
            if choice is None or rank < choice[0]:
                choice = (rank, cand, out)
        if choice is None:  # disconnected component: cheapest cross product
            cand = min(remaining, key=lambda b: (est[b], syn_index[b]))
            choice = (None, cand, current * max(est[cand], 1.0))
        _r, cand, current = choice
        order.append(cand)
        placed.add(cand)
        remaining.remove(cand)
    return [by_binding[binding] for binding in order]


def _reordered_steps(exec_slots, pool: _ConjunctPool):
    """Assign equi edges and residual conjuncts to execution-order steps."""
    placed = {exec_slots[0].binding}
    edges = list(pool.edges)
    multi = list(pool.multi)
    steps: list[_JoinStepSpec] = []
    for slot in exec_slots[1:]:
        pairs = []
        rest = []
        for lb, lc, rb, rc, conjunct in edges:
            if rb == slot.binding and lb in placed:
                pairs.append((lb, lc, rc))
            elif lb == slot.binding and rb in placed:
                pairs.append((rb, rc, lc))
            else:
                rest.append((lb, lc, rb, rc, conjunct))
        edges = rest
        placed.add(slot.binding)
        residuals = [c for tabs, c in multi if tabs <= placed]
        multi = [(tabs, c) for tabs, c in multi if not tabs <= placed]
        steps.append(_JoinStepSpec(slot, pairs, residuals))
    return steps


# -- ORDER BY / GROUP BY shape analysis -------------------------------------


def _order_spec_info(stmt: ast.SelectStmt, alias_map: dict, slots):
    """The ORDER BY as ``(binding, [(column, ascending), ...])`` when every
    key is a plain column of one single table (after alias substitution).

    None when any order item is something a scan cannot produce directly —
    an expression, a positional reference, an ambiguous name, or columns
    spread across tables.  Directions may be mixed; the access-path planner
    decides what it can serve.
    """
    if not stmt.order_by:
        return None
    unique_slots = list({slot.binding: slot for slot in slots}.values())
    binding = None
    spec: list = []
    for order in stmt.order_by:
        expr = order.expr
        if (
            isinstance(expr, ast.ColumnRef) and expr.table is None
            and expr.name in alias_map
        ):
            expr = alias_map[expr.name]
        if not isinstance(expr, ast.ColumnRef):
            return None
        owners = [
            slot for slot in unique_slots
            if slot.table.schema.has_column(expr.name)
            and (expr.table is None or expr.table == slot.binding)
        ]
        if len(owners) != 1:
            return None  # unknown or ambiguous; the sort path reports it
        if binding is None:
            binding = owners[0].binding
        elif binding != owners[0].binding:
            return None
        spec.append((expr.name, order.ascending))
    return binding, spec


def _group_order_spec(stmt: ast.SelectStmt, alias_map: dict, driver):
    """GROUP BY columns as a driver-table order spec, or None when any
    grouping expression is not a plain driver column."""
    if not stmt.group_by:
        return None
    spec: list = []
    for expr in stmt.group_by:
        expr = _substitute_aliases(expr, alias_map)
        if not isinstance(expr, ast.ColumnRef):
            return None
        if expr.table is not None and expr.table != driver.binding:
            return None
        if not driver.table.schema.has_column(expr.name):
            return None
        spec.append((expr.name, True))
    return spec


def _compile_order_specs(order_by, alias_map: dict, resolver: Resolver):
    """ORDER BY items as ``("position", index, asc)`` or ``("expr", fn, asc)``."""
    specs = []
    for order in order_by:
        expr = order.expr
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            specs.append(("position", expr.value - 1, order.ascending))
            continue
        if (
            isinstance(expr, ast.ColumnRef) and expr.table is None
            and expr.name in alias_map
        ):
            expr = alias_map[expr.name]
        specs.append(("expr", compile_expr(expr, resolver), order.ascending))
    return specs


# -- scan / join / group cardinality estimates ------------------------------


def _estimate_scan(stats, plan: ScanPlan, conjuncts, binding):
    """``(access_path_rows, output_rows)`` estimates for a chosen scan.

    The access path satisfies every conjunct the planner consumed; the
    residual filter then reduces the path output to the final estimate.
    """
    residual_ids = {id(c) for c in split_conjuncts(plan.residual)}
    path = rows = float(stats.n_rows)
    for conjunct in conjuncts:
        selectivity = conjunct_selectivity(stats, conjunct, binding)
        rows *= selectivity
        if id(conjunct) not in residual_ids:
            path *= selectivity
    return path, rows


def _estimate_groups(stmt: ast.SelectStmt, alias_map: dict, slots,
                     input_est: float) -> float:
    """Estimated group count: product of grouping-column distincts."""
    if not stmt.group_by:
        return 1.0
    unique_slots = list({slot.binding: slot for slot in slots}.values())
    groups = 1.0
    for expr in stmt.group_by:
        expr = _substitute_aliases(expr, alias_map)
        distinct = 10.0
        if isinstance(expr, ast.ColumnRef):
            owners = [
                slot for slot in unique_slots
                if slot.table.schema.has_column(expr.name)
                and (expr.table is None or expr.table == slot.binding)
            ]
            if len(owners) == 1:
                distinct = owners[0].stats.distinct(expr.name)
        groups *= distinct
    return max(1.0, min(groups, max(input_est, 1.0)))


# -- aggregate preparation (rewriting over intermediate rows) ----------------


class _AggregateRewriter:
    """Rewrites expressions over base rows into expressions over
    intermediate rows laid out as ``[group_key_0.., agg_0..]``."""

    def __init__(self, group_exprs: tuple):
        self.group_exprs = list(group_exprs)
        self.agg_nodes: list[ast.FuncCall] = []
        self._agg_slots: dict[ast.FuncCall, int] = {}

    def rewrite(self, expr: ast.Expr) -> ast.Expr:
        for i, group_expr in enumerate(self.group_exprs):
            if _expr_matches(expr, group_expr):
                return ast.SlotRef(i)
        if isinstance(expr, ast.FuncCall):
            if is_aggregate(expr.name):
                slot = self._agg_slots.get(expr)
                if slot is None:
                    slot = len(self.agg_nodes)
                    self._agg_slots[expr] = slot
                    self.agg_nodes.append(expr)
                return ast.SlotRef(len(self.group_exprs) + slot)
            return ast.FuncCall(
                expr.name, tuple(self.rewrite(a) for a in expr.args),
                expr.distinct, expr.is_star,
            )
        if isinstance(expr, ast.ColumnRef):
            raise PlanningError(
                f"column {expr.name!r} must appear in GROUP BY or inside an aggregate"
            )
        if isinstance(expr, ast.Unary):
            return ast.Unary(expr.op, self.rewrite(expr.operand))
        if isinstance(expr, ast.Binary):
            return ast.Binary(expr.op, self.rewrite(expr.left), self.rewrite(expr.right))
        if isinstance(expr, ast.Between):
            return ast.Between(
                self.rewrite(expr.expr), self.rewrite(expr.low),
                self.rewrite(expr.high), expr.negated,
            )
        if isinstance(expr, ast.InList):
            return ast.InList(
                self.rewrite(expr.expr), tuple(self.rewrite(i) for i in expr.items),
                expr.negated,
            )
        if isinstance(expr, ast.IsNull):
            return ast.IsNull(self.rewrite(expr.expr), expr.negated)
        if isinstance(expr, ast.Like):
            return ast.Like(self.rewrite(expr.expr), self.rewrite(expr.pattern), expr.negated)
        if isinstance(expr, ast.Cast):
            return ast.Cast(self.rewrite(expr.expr), expr.type_name)
        if isinstance(expr, ast.Case):
            return ast.Case(
                self.rewrite(expr.operand) if expr.operand is not None else None,
                tuple((self.rewrite(w), self.rewrite(t)) for w, t in expr.whens),
                self.rewrite(expr.else_result) if expr.else_result is not None else None,
            )
        return expr  # Literal, Param, SlotRef


def _substitute_aliases(expr: ast.Expr, alias_map: dict) -> ast.Expr:
    """Recursively replace select-list alias references with their expressions."""
    if isinstance(expr, ast.ColumnRef):
        if expr.table is None and expr.name in alias_map:
            return alias_map[expr.name]
        return expr
    if isinstance(expr, ast.Unary):
        return ast.Unary(expr.op, _substitute_aliases(expr.operand, alias_map))
    if isinstance(expr, ast.Binary):
        return ast.Binary(
            expr.op,
            _substitute_aliases(expr.left, alias_map),
            _substitute_aliases(expr.right, alias_map),
        )
    if isinstance(expr, ast.Between):
        return ast.Between(
            _substitute_aliases(expr.expr, alias_map),
            _substitute_aliases(expr.low, alias_map),
            _substitute_aliases(expr.high, alias_map),
            expr.negated,
        )
    if isinstance(expr, ast.InList):
        return ast.InList(
            _substitute_aliases(expr.expr, alias_map),
            tuple(_substitute_aliases(i, alias_map) for i in expr.items),
            expr.negated,
        )
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(_substitute_aliases(expr.expr, alias_map), expr.negated)
    if isinstance(expr, ast.Like):
        return ast.Like(
            _substitute_aliases(expr.expr, alias_map),
            _substitute_aliases(expr.pattern, alias_map),
            expr.negated,
        )
    if isinstance(expr, ast.FuncCall):
        return ast.FuncCall(
            expr.name,
            tuple(_substitute_aliases(a, alias_map) for a in expr.args),
            expr.distinct, expr.is_star,
        )
    if isinstance(expr, ast.Cast):
        return ast.Cast(_substitute_aliases(expr.expr, alias_map), expr.type_name)
    if isinstance(expr, ast.Case):
        return ast.Case(
            _substitute_aliases(expr.operand, alias_map) if expr.operand is not None else None,
            tuple(
                (_substitute_aliases(w, alias_map), _substitute_aliases(t, alias_map))
                for w, t in expr.whens
            ),
            _substitute_aliases(expr.else_result, alias_map)
            if expr.else_result is not None else None,
        )
    return expr


def _expr_matches(expr: ast.Expr, group_expr: ast.Expr) -> bool:
    if expr == group_expr:
        return True
    if isinstance(expr, ast.ColumnRef) and isinstance(group_expr, ast.ColumnRef):
        return expr.name == group_expr.name and (
            expr.table is None or group_expr.table is None or expr.table == group_expr.table
        )
    return False


def _prepare_aggregate(stmt: ast.SelectStmt, items, resolver: Resolver):
    """Build the :class:`~repro.minidb.plan_nodes.AggregateSpec` and decide
    whether group-ordered input makes the final sort redundant.

    Returns ``(spec, elide_sort)``: ``elide_sort`` is True when every
    ORDER BY key rewrites to the matching leading group slot ascending, in
    which case a StreamAggregate's output already arrives in order.
    """
    alias_map = {item.alias: item.expr for item in items if item.alias is not None}

    def substitute(expr: ast.Expr) -> ast.Expr:
        return _substitute_aliases(expr, alias_map)

    group_exprs = tuple(substitute(expr) for expr in stmt.group_by)
    rewriter = _AggregateRewriter(group_exprs)
    rewritten_items = [
        ast.SelectItem(rewriter.rewrite(item.expr), item.alias) for item in items
    ]
    rewritten_having = (
        rewriter.rewrite(substitute(stmt.having))
        if stmt.having is not None else None
    )
    rewritten_order = [
        ast.OrderItem(rewriter.rewrite(substitute(order.expr)), order.ascending)
        for order in stmt.order_by
    ]

    group_fns = [compile_expr(expr, resolver) for expr in group_exprs]
    agg_specs = []
    for node in rewriter.agg_nodes:
        if node.is_star:
            agg_specs.append((node, None))
        else:
            if len(node.args) != 1:
                raise PlanningError(f"{node.name}() takes exactly one argument")
            agg_specs.append((node, compile_expr(node.args[0], resolver)))

    slot_resolver = Resolver({})
    having_fn = (
        compile_expr(rewritten_having, slot_resolver)
        if rewritten_having is not None else None
    )
    item_fns = [compile_expr(item.expr, slot_resolver) for item in rewritten_items]

    order_specs = []
    elide_sort = bool(stmt.order_by)
    for j, (original, order) in enumerate(zip(stmt.order_by, rewritten_order)):
        # positional ORDER BY (e.g. ORDER BY 2) refers to the projected
        # output row, everything else to the intermediate group row
        if isinstance(original.expr, ast.Literal) and isinstance(
            original.expr.value, int
        ):
            order_specs.append(("position", original.expr.value - 1, order.ascending))
            elide_sort = False
        else:
            order_specs.append(
                ("expr", compile_expr(order.expr, slot_resolver), order.ascending)
            )
            if order.expr != ast.SlotRef(j) or not order.ascending:
                elide_sort = False

    spec = nodes.AggregateSpec(
        group_exprs, group_fns, agg_specs, having_fn, item_fns, order_specs
    )
    return spec, elide_sort


# -- merge-join eligibility --------------------------------------------------


def _provided_order(plan: ScanPlan, table: Table) -> list:
    """The ``(column, ascending)`` order a chosen scan streams rows in."""
    if plan.kind == INDEX_ORDER:
        return [(c, not plan.descending) for c in plan.columns]
    if plan.kind == INDEX_PREFIX and plan.columns:
        index = table.indexes.get(plan.index_name)
        if index is None or index.kind != "btree":
            return []  # hash full-equality lookups carry no order
        k = len(plan.prefix_exprs)
        return [(c, not plan.descending) for c in plan.columns[k:]]
    if plan.kind == INDEX_RANGE:
        return [(plan.column, not plan.descending)]
    return []


def _covering_single_btree(table: Table, column: str):
    """A B+tree over exactly ``column`` that indexes every row, or None."""
    for index in table.btree_indexes():
        if index.columns == (column,) and index.covers(table.n_rows):
            return index
    return None


def _merge_eligible(step: _JoinStepSpec, driver, driver_plan: ScanPlan,
                    right_plan: ScanPlan):
    """``(left_col, right_col, right_index)`` when this step can merge:
    single equi pair on a driver column the stream arrives ordered on, and
    a covering single-column B+tree on the build column (whose best scan
    found no better access path than a full walk)."""
    if len(step.pairs) != 1:
        return None
    left_binding, left_col, right_col = step.pairs[0]
    if left_binding != driver.binding or left_col == "rowid" or right_col == "rowid":
        return None
    provided = _provided_order(driver_plan, driver.table)
    if not provided or provided[0] != (left_col, True):
        return None
    if right_plan.kind != SEQ:
        return None
    index = _covering_single_btree(step.slot.table, right_col)
    if index is None:
        return None
    return left_col, right_col, index


def _maybe_steer_merge(driver, driver_plan: ScanPlan, pushed_where,
                       driver_conjuncts, first_step: _JoinStepSpec,
                       stream_group: bool) -> ScanPlan:
    """Re-plan the driver scan in join-key order when that unlocks a merge
    join worth having (cost gate: the hash build it avoids is large)."""
    if stream_group or driver_plan.kind != SEQ or driver_plan.order_satisfied:
        return driver_plan
    if len(first_step.pairs) != 1:
        return driver_plan
    left_binding, left_col, right_col = first_step.pairs[0]
    if left_binding != driver.binding or left_col == "rowid" or right_col == "rowid":
        return driver_plan
    slot = first_step.slot
    if _covering_single_btree(slot.table, right_col) is None:
        return driver_plan
    right_plan = _plan_step_right(first_step)
    if right_plan.kind != SEQ:
        return driver_plan
    steered = plan_scan(driver.table, pushed_where, binding=driver.binding,
                        order_spec=[(left_col, True)])
    provided = _provided_order(steered, driver.table)
    if not provided or provided[0] != (left_col, True):
        return driver_plan
    _path, right_out = first_step.right_ests
    _path2, left_out = _estimate_scan(driver.stats, driver_plan,
                                      driver_conjuncts, driver.binding)
    if right_out < MERGE_MIN_BUILD_ROWS or right_out < MERGE_STEER_RATIO * max(left_out, 1.0):
        return driver_plan
    return steered


# -- join-step node construction ---------------------------------------------


def _local_pos(table: Table, column: str) -> int:
    """Position of ``column`` in a local ``[rowid, *values]`` row."""
    if column == "rowid" and not table.schema.has_column("rowid"):
        return 0
    return 1 + table.schema.position(column)


def _table_access_nodes(slot: _TableSlot, plan: ScanPlan, path_est: float,
                        out_est: float):
    """Scan (+ local Filter) subtree producing a table's local rows."""
    node = nodes.Scan(slot.table, plan, path_est)
    if plan.residual is not None:
        local = Resolver({slot.binding: _layout(slot.table, 0)})
        node = nodes.Filter(node, plan.residual,
                            compile_expr(plan.residual, local), out_est)
    return node


def _plan_step_right(step: _JoinStepSpec) -> ScanPlan:
    """The build side's access path, planned exactly once per step."""
    if step.right_plan is None:
        slot = step.slot
        step.right_plan = plan_scan(slot.table, conjoin(slot.pushed),
                                    binding=slot.binding)
        step.right_ests = _estimate_scan(slot.stats, step.right_plan,
                                         slot.pushed, slot.binding)
    return step.right_plan


def _reorder_join_node(left_node, left_est: float, step: _JoinStepSpec,
                       bindings: dict, resolver: Resolver, by_binding: dict,
                       driver, driver_plan: ScanPlan):
    """Physical node for one reordered (all-INNER) join step."""
    slot = step.slot
    right_plan = _plan_step_right(step)
    path_est, out_est = step.right_ests
    residual_expr = conjoin(step.residuals)
    residual_fn = (
        compile_expr(residual_expr, resolver) if residual_expr is not None else None
    )
    dpairs = [
        (by_binding[lb].stats.distinct(lc), slot.stats.distinct(rc))
        for lb, lc, rc in step.pairs
    ]
    est = estimate_join_rows(left_est, out_est, dpairs)
    for conjunct in step.residuals:
        est *= conjunct_selectivity(slot.stats, conjunct, slot.binding)

    merge = (
        _merge_eligible(step, driver, driver_plan, right_plan)
        if left_node is not None else None
    )
    if merge is not None:
        left_col, right_col, index = merge
        order_plan = ScanPlan(
            table=slot.table.name, kind=INDEX_ORDER, index_name=index.name,
            column=index.columns[0], columns=index.columns,
            residual=right_plan.residual, order_satisfied=True,
        )
        right_node = nodes.Scan(slot.table, order_plan, float(slot.stats.n_rows))
        right_filter_fn = None
        if right_plan.residual is not None:
            local = Resolver({slot.binding: _layout(slot.table, 0)})
            right_filter_fn = compile_expr(right_plan.residual, local)
            right_node = nodes.Filter(right_node, right_plan.residual,
                                      right_filter_fn, out_est)
        join = nodes.MergeJoin(
            left_node, right_node, slot.binding, slot.table, index,
            bindings[step.pairs[0][0]][left_col], right_col,
            slot.offset, slot.width,
            right_filter_fn=right_filter_fn,
            residual_fn=residual_fn, has_residual=residual_expr is not None,
            estimated_rows=est,
        )
        return join, est

    right_node = _table_access_nodes(slot, right_plan, path_est, out_est)
    if step.pairs:
        join = nodes.HashJoin(
            left_node, right_node, slot.binding, "INNER",
            [bindings[lb][lc] for lb, lc, _rc in step.pairs],
            [_local_pos(slot.table, rc) for _lb, _lc, rc in step.pairs],
            slot.offset, slot.width,
            residual_fn=residual_fn, has_residual=residual_expr is not None,
            estimated_rows=est,
        )
        return join, est
    join = nodes.NestedLoopJoin(
        left_node, right_node, slot.binding, "INNER", residual_expr,
        residual_fn, slot.width, estimated_rows=est,
    )
    return join, est


def _col_at(exec_slots, position: int):
    """``(slot, column_name)`` owning an absolute row position."""
    for slot in exec_slots:
        if slot.offset <= position < slot.offset + slot.width:
            local = position - slot.offset
            if local == 0:
                return slot, "rowid"
            return slot, slot.table.schema.column_names[local - 1]
    raise PlanningError(f"row position {position} out of range")


def _fallback_join_node(left_node, left_est: float, slot: _TableSlot,
                        resolver: Resolver, exec_slots):
    """Physical node for one syntactic-order join step (LEFT joins, or
    queries the reorderer declined)."""
    join = slot.join
    right_plan = ScanPlan(table=slot.table.name, kind=SEQ)
    right_node = nodes.Scan(slot.table, right_plan, float(slot.table.n_rows))
    pairs, right_only, residual = split_join_condition(
        join.on, resolver, slot.offset, slot.width
    )
    if not pairs:
        est = left_est * max(float(slot.table.n_rows), 1.0) * 0.5
        if join.kind == "LEFT":
            est = max(est, left_est)
        node = nodes.NestedLoopJoin(
            left_node, right_node, join.table.binding, join.kind, join.on,
            compile_expr(join.on, resolver), slot.width, estimated_rows=est,
        )
        return node, est
    if join.kind == "LEFT":
        # prefiltering the build side of a LEFT join would turn matched
        # rows into NULL-padded ones; keep right-only conjuncts residual
        build_filter = None
        residual_expr = conjoin(right_only + residual)
    else:
        build_filter = conjoin(right_only)
        residual_expr = conjoin(residual)
    dpairs = []
    for left_pos, right_pos in pairs:
        left_slot, left_col = _col_at(exec_slots, left_pos)
        _right_slot, right_col = _col_at(exec_slots, right_pos)
        dpairs.append((
            left_slot.stats.distinct(left_col), slot.stats.distinct(right_col)
        ))
    est = estimate_join_rows(left_est, float(slot.table.n_rows), dpairs)
    if join.kind == "LEFT":
        est = max(est, left_est)
    node = nodes.HashJoin(
        left_node, right_node, join.table.binding, join.kind,
        [lp for lp, _ in pairs], [rp - slot.offset for _, rp in pairs],
        slot.offset, slot.width,
        build_filter_fn=(
            compile_expr(build_filter, resolver)
            if build_filter is not None else None
        ),
        residual_fn=(
            compile_expr(residual_expr, resolver)
            if residual_expr is not None else None
        ),
        has_build_filter=build_filter is not None,
        has_residual=residual_expr is not None,
        estimated_rows=est,
    )
    return node, est


# -- the two-stage entry point ----------------------------------------------


def plan_select(db, stmt: ast.SelectStmt) -> SelectPlan:
    """Compile a SELECT into a physical plan tree.

    Stage 1 (logical): bind tables, classify conjuncts, pick a join order
    from cardinality estimates.  Stage 2 (physical): choose access paths
    and operator implementations, annotating every node with estimated
    rows.
    """
    base_table = db.table(stmt.table.name)
    slots = [_TableSlot(stmt.table.binding, base_table, None)]
    for join in stmt.joins:
        slots.append(
            _TableSlot(join.table.binding, db.table(join.table.name), join)
        )
    stats = getattr(db, "stats", None)
    if stats is None:
        stats = StatsManager()
    for slot in slots:
        slot.stats = stats.for_table(slot.table)
    by_binding = {slot.binding: slot for slot in slots}

    exec_slots = None
    pool = None
    reorderable = (
        len(slots) > 1
        and len(by_binding) == len(slots)
        and all(slot.join is None or slot.join.kind == "INNER" for slot in slots)
        and getattr(db, "reorder_joins", True)
    )
    if reorderable:
        pool = _classify_conjuncts(stmt, slots, by_binding)
        if pool.edges:
            exec_slots = _greedy_join_order(slots, by_binding, pool)
    fallback = exec_slots is None
    if fallback:
        exec_slots = slots
        for slot in slots:
            slot.pushed = []  # reorder-mode pushdowns do not apply

    offset = 0
    for slot in exec_slots:
        slot.offset = offset
        offset += slot.width

    # bindings in syntactic order (star expansion, name resolution) with
    # offsets reflecting execution order
    bindings = {slot.binding: _layout(slot.table, slot.offset) for slot in slots}
    resolver = Resolver(bindings)
    items = _expand_stars(stmt.items, bindings)
    alias_map = {item.alias: item.expr for item in items if item.alias is not None}
    has_aggregates = bool(stmt.group_by) or any(
        item.expr is not None and find_aggregates(item.expr) for item in items
    ) or (stmt.having is not None and find_aggregates(stmt.having))

    driver = exec_slots[0]
    order_info = None if has_aggregates else _order_spec_info(stmt, alias_map, slots)
    driver_order_spec = (
        order_info[1]
        if order_info is not None and order_info[0] == driver.binding
        else None
    )
    group_spec = (
        _group_order_spec(stmt, alias_map, driver) if has_aggregates else None
    )

    # -- driver access path --------------------------------------------------
    post_where = None
    if fallback:
        if len(slots) > 1:
            pushed_where, post_where = partition_conjuncts(
                stmt.where, resolver, driver.width
            )
        else:
            pushed_where = stmt.where
        driver_conjuncts = split_conjuncts(pushed_where)
    else:
        driver_conjuncts = driver.pushed
        pushed_where = conjoin(driver_conjuncts)

    stream_group = False
    if group_spec is not None:
        plain = plan_scan(driver.table, pushed_where, binding=driver.binding)
        ordered = plan_scan(driver.table, pushed_where, binding=driver.binding,
                            order_spec=group_spec)
        plain_path, _out = _estimate_scan(driver.stats, plain,
                                          driver_conjuncts, driver.binding)
        ordered_path, _out2 = _estimate_scan(driver.stats, ordered,
                                             driver_conjuncts, driver.binding)
        # stream only when ordering the input costs nothing in access-path
        # quality (no index filtering given up for the walk)
        if ordered.order_satisfied and ordered_path <= plain_path:
            driver_plan = ordered
            stream_group = True
        else:
            driver_plan = plain
    else:
        driver_plan = plan_scan(driver.table, pushed_where, binding=driver.binding,
                                order_spec=driver_order_spec)
    driver_plan = _maybe_demote_index(
        driver.table, driver.stats, driver_plan, pushed_where,
        driver_conjuncts, driver.binding, stream_group,
    )

    # whether the chosen scan serves the user's ORDER BY must be decided
    # *before* merge steering: a steered plan is ordered on the join key,
    # which says nothing about the query's ORDER BY columns
    order_served = (
        not has_aggregates
        and driver_order_spec is not None
        and driver_plan.order_satisfied
    )

    steps = _reordered_steps(exec_slots, pool) if not fallback else []
    if steps and not order_served:
        driver_plan = _maybe_steer_merge(
            driver, driver_plan, pushed_where, driver_conjuncts, steps[0],
            stream_group,
        )

    path_est, out_est = _estimate_scan(driver.stats, driver_plan,
                                       driver_conjuncts, driver.binding)
    node = nodes.Scan(driver.table, driver_plan, path_est)
    if driver_plan.residual is not None:
        # the driver occupies offset 0, so the global resolver compiles its
        # residual for both the single-table and the joined layouts
        node = nodes.Filter(node, driver_plan.residual,
                            compile_expr(driver_plan.residual, resolver), out_est)
    current_est = out_est

    # -- join steps ----------------------------------------------------------
    if fallback:
        for slot in exec_slots[1:]:
            node, current_est = _fallback_join_node(
                node, current_est, slot, resolver, exec_slots
            )
        if post_where is not None:
            post_est = current_est * 0.5
            node = nodes.Filter(node, post_where,
                                compile_expr(post_where, resolver), post_est)
            current_est = post_est
    else:
        for step in steps:
            node, current_est = _reorder_join_node(
                node, current_est, step, bindings, resolver, by_binding,
                driver, driver_plan,
            )
        if pool.post:
            post_expr = conjoin(pool.post)
            post_est = current_est * 0.5
            node = nodes.Filter(node, post_expr,
                                compile_expr(post_expr, resolver), post_est)
            current_est = post_est

    names, root = _finish_select(
        stmt, items, alias_map, resolver, node, current_est, has_aggregates,
        stream_group, order_served, slots,
    )
    root = _vectorize(root, resolver, getattr(db, "vectorize", "auto"))
    tables = tuple(dict.fromkeys(slot.table.name for slot in slots))
    return SelectPlan(stmt, root, names, resolver, items, tables)


def _maybe_demote_index(table: Table, table_stats, plan: ScanPlan,
                        pushed_where, conjuncts, binding,
                        stream_group: bool) -> ScanPlan:
    """Demote a broad index walk or probe back to a sequential scan.

    With per-column histograms pricing range predicates honestly
    (:mod:`repro.minidb.stats`), a broad range — ``val > constant``
    matching most of the table — is cheaper as SeqScan + Filter than as a
    leaf-chasing B+tree walk with a heap lookup per hit.  The same goes
    for equality on a skewed key: MCV lists price ``col = heavy_hitter``
    at the hitter's true row fraction, so an index probe returning most
    of the table demotes too (rare values keep the probe — the flip the
    MCV satellite test pins down).  Selective paths keep the index, and
    plans whose walk order serves the query's ORDER BY (or a streaming
    GROUP BY) are never demoted: they elide a sort, which the row-cost
    comparison does not see.
    """
    if (plan.kind not in (INDEX_RANGE, INDEX_EQ) or plan.order_satisfied
            or stream_group):
        return plan
    if table_stats.n_rows < DEMOTE_MIN_ROWS:
        return plan
    path_est, _out = _estimate_scan(table_stats, plan, conjuncts, binding)
    if path_est * INDEX_RANGE_ROW_COST <= float(table_stats.n_rows) * SEQ_ROW_COST:
        return plan
    return ScanPlan(table.name, residual=pushed_where)


# -- vectorization post-pass -------------------------------------------------


def _vectorize(root, resolver: Resolver, vectorize_mode: str):
    """Convert eligible subtrees of a finished plan to batch operators.

    ``"off"`` leaves the row pipeline untouched; ``"on"`` forces batch
    mode wherever it is semantically available (the parity suite runs
    here); ``"auto"`` — the default — vectorizes analytic shapes only:
    aggregate queries, or scan pipelines without a LIMIT/TopK
    short-circuit, over scans expected to produce at least
    :data:`VECTOR_MIN_ROWS` rows.  Only sequential scans batch in this
    first cut — point lookups, index-order walks and MVCC snapshot reads
    keep the row pipeline (a snapshot read through a cached batch plan
    falls back at runtime inside BatchScan).
    """
    if vectorize_mode == "off":
        return root
    force = vectorize_mode == "on"
    if not force and not _analytic_shape(root):
        return root
    node, is_batch = _vectorize_node(root, resolver, force)
    if is_batch:  # defensive: _finish_select always roots a row consumer
        node = nodes.BatchToRows(node, node.estimated_rows)
    return node


def _analytic_shape(root) -> bool:
    """Aggregates always pay off in batch mode; LIMIT/TopK shapes without
    an aggregate favor the row pipeline's short-circuit laziness."""
    has_aggregate = False
    has_limit = False
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, (nodes.HashAggregate, nodes.StreamAggregate)):
            has_aggregate = True
        elif isinstance(node, (nodes.Limit, nodes.TopK)):
            has_limit = True
        stack.extend(node.children())
    return has_aggregate or not has_limit


def _row_child(child, resolver: Resolver, force: bool):
    """Vectorize a subtree whose consumer needs rows, capping batch output."""
    node, is_batch = _vectorize_node(child, resolver, force)
    if is_batch:
        return nodes.BatchToRows(node, node.estimated_rows)
    return node


def _vectorize_node(node, resolver: Resolver, force: bool):
    """Rewrite one node, returning ``(node, outputs_batches)``.

    The tree is freshly built and not yet cached, so row-mode nodes that
    survive are patched in place; converted nodes are rebuilt as their
    batch variants.
    """
    if isinstance(node, nodes.Scan):
        if node.plan.kind == SEQ and (
            force or (node.estimated_rows or 0.0) >= VECTOR_MIN_ROWS
        ):
            return nodes.BatchScan(node.table, node.plan,
                                   node.estimated_rows), True
        return node, False
    if isinstance(node, nodes.Filter):
        child, is_batch = _vectorize_node(node.child, resolver, force)
        if is_batch:
            return nodes.BatchFilter(
                child, node.expr,
                compile_filter_kernels(node.expr, resolver),
                node.estimated_rows,
            ), True
        node.child = child
        return node, False
    if isinstance(node, nodes.HashJoin):
        left, left_batch = _vectorize_node(node.left, resolver, force)
        # the build side stays row-mode: it is materialized into hash
        # buckets regardless, so batching it would buy nothing
        if (left_batch and node.kind == "INNER"
                and not node.has_build_filter and not node.has_residual):
            return nodes.BatchHashJoin(
                left, node.right, node.binding, node.left_positions,
                node.right_positions, node.estimated_rows,
            ), True
        if left_batch:
            left = nodes.BatchToRows(left, left.estimated_rows)
        node.left = left
        return node, False
    if isinstance(node, nodes.HashAggregate):
        child, is_batch = _vectorize_node(node.child, resolver, force)
        if is_batch:
            descs = _vector_agg_descs(node.spec, resolver)
            if descs is not None:
                return nodes.BatchAggregate(
                    child, node.spec, descs[0], descs[1], node.estimated_rows,
                ), False
            child = nodes.BatchToRows(child, child.estimated_rows)
        node.child = child
        return node, False
    if isinstance(node, (nodes.MergeJoin, nodes.NestedLoopJoin)):
        node.left = _row_child(node.left, resolver, force)
        node.right = _row_child(node.right, resolver, force)
        return node, False
    if isinstance(node, (nodes.StreamAggregate, nodes.Project, nodes.Sort,
                         nodes.TopK, nodes.Distinct, nodes.Limit)):
        node.child = _row_child(node.child, resolver, force)
        return node, False
    return node, False  # anything else: leave untouched


def _vector_agg_descs(spec, resolver: Resolver):
    """``(group_positions, agg_descs)`` for a vectorizable aggregate, or None.

    Vectorizable: every group expression is a plain column reference and
    every aggregate is non-DISTINCT SUM/COUNT/MIN/MAX/AVG over a plain
    column (or COUNT(*)).  Anything richer keeps the row accumulators
    behind a BatchToRows adapter.
    """
    group_positions = []
    for expr in spec.group_exprs:
        position = _vector_position(expr, resolver)
        if position is None:
            return None
        group_positions.append(position)
    agg_descs = []
    for fnode, _arg_fn in spec.agg_specs:
        if fnode.distinct or fnode.name not in BATCH_AGGREGATES:
            return None
        if fnode.is_star:
            agg_descs.append((fnode.name, None))
            continue
        position = _vector_position(fnode.args[0], resolver)
        if position is None:
            return None
        agg_descs.append((fnode.name, position))
    return group_positions, agg_descs


def _vector_position(expr: ast.Expr, resolver: Resolver) -> int | None:
    if isinstance(expr, ast.ColumnRef):
        return resolver.resolve(expr)
    if isinstance(expr, ast.SlotRef):
        return expr.index
    return None


def _finish_select(stmt: ast.SelectStmt, items, alias_map: dict,
                   resolver: Resolver, node, input_est: float,
                   has_aggregates: bool, stream_group: bool,
                   order_served: bool, slots):
    """Build the top of the tree: aggregate/project, order, distinct, limit."""
    names = [output_name(item) for item in items]
    limit_value = _limit_literal(stmt.limit) if stmt.limit is not None else None
    offset_value = _limit_literal(stmt.offset) if stmt.offset is not None else 0

    if has_aggregates:
        spec, elide_sort = _prepare_aggregate(stmt, items, resolver)
        group_est = _estimate_groups(stmt, alias_map, slots, input_est)
        if spec.having_fn is not None:
            group_est = max(1.0, group_est * 0.5)
        agg_cls = nodes.StreamAggregate if stream_group else nodes.HashAggregate
        out = agg_cls(node, spec, group_est)
        if stmt.order_by and not (stream_group and elide_sort):
            out = nodes.Sort(out, spec.order_specs, len(stmt.order_by),
                             "groups", group_est)
        if stmt.distinct:
            out = nodes.Distinct(out, group_est)
        if stmt.limit is not None:
            est = group_est if limit_value is None else min(group_est, limit_value)
            out = nodes.Limit(out, stmt.limit, stmt.offset, est)
        return names, out

    item_fns = [compile_expr(item.expr, resolver) for item in items]
    project = nodes.Project(node, item_fns, names, input_est)
    if not stmt.order_by or order_served:
        out = project
        if stmt.distinct:
            out = nodes.Distinct(out, input_est)
        if stmt.limit is not None:
            est = input_est if limit_value is None else min(input_est, limit_value)
            out = nodes.Limit(out, stmt.limit, stmt.offset, est)
        return names, out

    specs = _compile_order_specs(stmt.order_by, alias_map, resolver)
    if stmt.limit is not None and not stmt.distinct:
        kept = (
            input_est if limit_value is None
            else min(input_est, limit_value + (offset_value or 0))
        )
        top = nodes.TopK(project, specs, len(stmt.order_by), stmt.limit,
                         stmt.offset, kept)
        est = input_est if limit_value is None else min(input_est, limit_value)
        return names, nodes.Limit(top, stmt.limit, stmt.offset, est)
    out = nodes.Sort(project, specs, len(stmt.order_by), "rows", input_est)
    if stmt.distinct:
        out = nodes.Distinct(out, input_est)
    if stmt.limit is not None:
        est = input_est if limit_value is None else min(input_est, limit_value)
        out = nodes.Limit(out, stmt.limit, stmt.offset, est)
    return names, out
