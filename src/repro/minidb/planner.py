"""Access-path selection for minidb.

Given a table, a WHERE expression, and the query's ORDER BY shape, the
planner picks the cheapest scan:

1. rowid point lookups;
2. a composite B+tree walk matching *equality-prefix + order-suffix* —
   ``WHERE cat = ? ORDER BY val [DESC] LIMIT k`` on an index over
   ``(cat, val)`` becomes one bounded leaf walk (backward for DESC),
   with no sort or top-k operator downstream;
3. full equality over every column of a multi-column index;
4. equality on an indexed column;
5. ``IN`` list over an indexed column (union of point lookups);
6. ``IS NULL`` on an indexed column (the index tracks its NULL rowids,
   so the predicate is a point lookup);
7. range predicates (``<``, ``<=``, ``>``, ``>=``, ``BETWEEN``) on an
   indexed column, with bounds merged across conjuncts;
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
(:func:`plan_select`).  A SELECT reads exactly one table; the planner
binds it, picks its access path, and builds a physical plan tree
(:mod:`repro.minidb.plan_nodes`) using cardinality estimates read off
exact counts (the table's row count, its indexes' distinct keys and
NULL rowids) to

* demote a broad index walk or probe back to a sequential scan,
* choose a :class:`~repro.minidb.plan_nodes.StreamAggregate` when the
  GROUP BY input is already ordered on the grouping columns — over a
  full index walk only when group order elides the sort or a LIMIT stops
  the walk early, and
* convert analytic shapes to batch operators.

The executor is a dispatcher over the resulting tree.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    eq_candidates: list[tuple[str, ast.Expr, int]] = []  # (col, value, idx)
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
                if table.indexes_on(column):
                    eq_candidates.append((column, value, i))
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
    index = _match_full_equality(table, eq_map)
    if index is not None:
        prefix_cols = index.columns
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
        column, value, used = eq_candidates[0]
        index = _best_index(table, column)
        residual = conjoin([c for j, c in enumerate(conjuncts) if j != used])
        return finalize(ScanPlan(
            table=table.name, kind=INDEX_EQ, index_name=index.name, column=column,
            eq_expr=value, residual=residual,
        ))
    if in_candidates:
        column, items, used = in_candidates[0]
        index = _best_index(table, column)
        residual = conjoin([c for j, c in enumerate(conjuncts) if j != used])
        return finalize(ScanPlan(
            table=table.name, kind=INDEX_IN, index_name=index.name, column=column,
            in_exprs=items, residual=residual,
        ))
    for column, used in null_candidates:
        index = _best_index(table, column)
        if index is None or not index.covers(table.n_rows):
            continue
        residual = conjoin([c for j, c in enumerate(conjuncts) if j != used])
        return finalize(ScanPlan(
            table=table.name, kind=INDEX_NULL, index_name=index.name, column=column,
            residual=residual,
        ))
    for column, entry in bounds.items():
        index = _best_index(table, column)
        if index is None:
            continue
        used = set(entry["conjuncts"])
        residual = conjoin([c for j, c in enumerate(conjuncts) if j not in used])
        descending = effective_order == [(column, False)]
        return finalize(ScanPlan(
            table=table.name, kind=INDEX_RANGE, index_name=index.name, column=column,
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
    """The index (if any) whose key order serves the ORDER BY after
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
    for index in table.indexes.values():
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
        if best is None or index.n_columns > best.n_columns:
            best = index
    return best


def _match_longest_prefix(table: Table, eq_map: dict):
    """The composite index with the longest equality-bound leading prefix."""
    best = None
    for index in table.indexes.values():
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
        # surviving as a residual filter
        entry = bounds.get(index.columns[k])
        if entry is not None:
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


def _best_index(table: Table, column: str):
    """The first single-column index on ``column``, or None."""
    indexes = table.indexes_on(column)
    return indexes[0] if indexes else None


# ---------------------------------------------------------------------------
# cost-based SELECT planning: logical analysis -> physical plan tree
# ---------------------------------------------------------------------------

class SelectPlan:
    """A compiled physical plan for one SELECT statement.

    ``tables`` names the table the plan reads — the plan cache keys the
    plan on its row-count bucket, so a table that crosses a power-of-two
    edge re-plans rather than replaying a tree sized for another count.
    """

    __slots__ = ("stmt", "root", "names", "resolver", "items", "tables")

    def __init__(self, stmt, root, names, resolver, items, tables=()):
        self.stmt = stmt
        self.root = root
        self.names = names
        self.resolver = resolver
        self.items = items
        self.tables = tables


def _expand_stars(items, binding: str, table: Table) -> list[ast.SelectItem]:
    expanded: list[ast.SelectItem] = []
    for item in items:
        if not item.is_star:
            expanded.append(item)
            continue
        if item.star_table not in (None, binding):
            raise PlanningError(f"unknown table {item.star_table!r} in select list")
        expanded.extend(
            ast.SelectItem(expr=ast.ColumnRef(binding, column), alias=column)
            for column in table.schema.column_names if column != "rowid"
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


# -- ORDER BY / GROUP BY shape analysis -------------------------------------


def _is_own_column(expr: ast.Expr, binding: str, table: Table) -> bool:
    """True when ``expr`` is a plain reference to a column of ``table``."""
    return (
        isinstance(expr, ast.ColumnRef)
        and table.schema.has_column(expr.name)
        and expr.table in (None, binding)
    )


def _order_spec(stmt: ast.SelectStmt, alias_map: dict, binding: str,
                table: Table):
    """The ORDER BY as ``[(column, ascending), ...]`` when every key is a
    plain column of the table (after alias substitution).

    None when any order item is something a scan cannot produce directly —
    an expression, a positional reference or an unknown name.  Directions
    may be mixed; the access-path planner decides what it can serve.
    """
    if not stmt.order_by:
        return None
    spec: list = []
    for order in stmt.order_by:
        expr = order.expr
        if (
            isinstance(expr, ast.ColumnRef) and expr.table is None
            and expr.name in alias_map
        ):
            expr = alias_map[expr.name]
        if not _is_own_column(expr, binding, table):
            return None  # unknown or an expression; the sort path handles it
        spec.append((expr.name, order.ascending))
    return spec


def _group_order_spec(stmt: ast.SelectStmt, alias_map: dict, binding: str,
                      table: Table):
    """GROUP BY columns as a table order spec, or None when any grouping
    expression is not a plain column of the table."""
    if not stmt.group_by:
        return None
    spec: list = []
    for expr in stmt.group_by:
        expr = _substitute_aliases(expr, alias_map)
        if not _is_own_column(expr, binding, table):
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


# -- cardinality estimates ---------------------------------------------------
#
# Estimates read exact counts only, live at planning time: the table's row
# count and, for a column with a covering single-column index, the B+tree's
# distinct-key counter and NULL rowids (both maintained on every write).
# Any other column is unknown and takes the flat defaults below.  The
# model is System R's — ``1/distinct`` for equality, the NULL fraction for
# ``IS NULL`` — and no estimate reads a comparand's value, so a cached plan
# never depends on one binding.

EQ_DEFAULT = 0.1
RANGE_DEFAULT = 0.3
BETWEEN_DEFAULT = 0.25
LIKE_DEFAULT = 0.25
OTHER_DEFAULT = 0.5
#: NULL fraction of a column with no covering index
NULL_DEFAULT = 0.1
#: distinct values of a grouping key with no covering index
GROUPS_DEFAULT = 10.0


def column_counts(table: Table, column: str) -> tuple[float, float] | None:
    """``(distinct, null_fraction)`` of ``column``, exact, or None if unknown.

    ``rowid`` is unique and never NULL; a column with a covering
    single-column index counts its distinct non-NULL keys and its NULL
    rowids off the B+tree.
    """
    n_rows = table.n_rows
    if column == "rowid" and not table.schema.has_column("rowid"):
        return float(max(1, n_rows)), 0.0
    for index in table.indexes_on(column):
        if index.covers(n_rows):
            n_null = len(index.null_rowids)
            distinct = index.n_keys - (1 if n_null else 0)
            return float(max(1, distinct)), n_null / n_rows if n_rows else 0.0
    return None


def _counted_column(expr: ast.Expr, table: Table, binding: str | None):
    """Exact counts of the column of ``table`` that ``expr`` references."""
    if _is_rowid_ref(expr, table, binding):
        return column_counts(table, "rowid")
    column = _column_of(expr, table, binding)
    return None if column is None else column_counts(table, column)


def conjunct_selectivity(table: Table, conjunct: ast.Expr,
                         binding: str | None = None) -> float:
    """Estimated fraction of ``table``'s rows satisfying one conjunct."""
    if isinstance(conjunct, ast.Binary):
        op = conjunct.op
        if op == "AND":
            return (conjunct_selectivity(table, conjunct.left, binding)
                    * conjunct_selectivity(table, conjunct.right, binding))
        if op == "OR":
            a = conjunct_selectivity(table, conjunct.left, binding)
            b = conjunct_selectivity(table, conjunct.right, binding)
            return min(1.0, a + b - a * b)
        if op in ("<", "<=", ">", ">="):
            return RANGE_DEFAULT
        if op not in ("=", "<>"):
            return OTHER_DEFAULT
        counts = (_counted_column(conjunct.left, table, binding)
                  or _counted_column(conjunct.right, table, binding))
        equal = EQ_DEFAULT if counts is None else 1.0 / counts[0]
        return equal if op == "=" else 1.0 - equal
    if isinstance(conjunct, ast.Between):
        return 1.0 - BETWEEN_DEFAULT if conjunct.negated else BETWEEN_DEFAULT
    if isinstance(conjunct, ast.InList):
        counts = _counted_column(conjunct.expr, table, binding)
        n_items = len(conjunct.items)
        inside = min(1.0, EQ_DEFAULT * n_items if counts is None
                     else n_items / counts[0])
        return 1.0 - inside if conjunct.negated else inside
    if isinstance(conjunct, ast.IsNull):
        counts = _counted_column(conjunct.expr, table, binding)
        fraction = NULL_DEFAULT if counts is None else counts[1]
        return 1.0 - fraction if conjunct.negated else fraction
    if isinstance(conjunct, ast.Like):
        return 1.0 - LIKE_DEFAULT if conjunct.negated else LIKE_DEFAULT
    if isinstance(conjunct, ast.Unary) and conjunct.op == "NOT":
        return 1.0 - conjunct_selectivity(table, conjunct.operand, binding)
    return OTHER_DEFAULT


def _estimate_scan(table: Table, plan: ScanPlan, conjuncts, binding):
    """``(access_path_rows, output_rows)`` estimates for a chosen scan.

    The access path satisfies every conjunct the planner consumed; the
    residual filter then reduces the path output to the final estimate.
    """
    residual_ids = {id(c) for c in split_conjuncts(plan.residual)}
    path = rows = float(table.n_rows)
    for conjunct in conjuncts:
        selectivity = conjunct_selectivity(table, conjunct, binding)
        rows *= selectivity
        if id(conjunct) not in residual_ids:
            path *= selectivity
    return path, rows


def _estimate_groups(stmt: ast.SelectStmt, alias_map: dict, binding: str,
                     table: Table, input_est: float) -> float:
    """Estimated group count: product of grouping-column distincts."""
    if not stmt.group_by:
        return 1.0
    groups = 1.0
    for expr in stmt.group_by:
        expr = _substitute_aliases(expr, alias_map)
        counts = _counted_column(expr, table, binding)
        groups *= GROUPS_DEFAULT if counts is None else counts[0]
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

    slot_resolver = Resolver()
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


# -- the entry point ---------------------------------------------------------


def plan_select(db, stmt: ast.SelectStmt) -> SelectPlan:
    """Compile a one-table SELECT into a physical plan tree.

    Bind the table and choose its access path: ordered when that serves
    the ORDER BY or lets the GROUP BY stream, and demoted to a sequential
    scan when an index walk would touch most of the table.  Then build the
    aggregate or projection, ordering and LIMIT above it, and vectorize
    what qualifies.  Every node carries its estimated rows.
    """
    table = db.table(stmt.table.name)
    binding = stmt.table.binding

    resolver = Resolver.for_table(binding, table.schema.column_names)
    items = _expand_stars(stmt.items, binding, table)
    alias_map = {item.alias: item.expr for item in items if item.alias is not None}
    has_aggregates = bool(stmt.group_by) or any(
        item.expr is not None and find_aggregates(item.expr) for item in items
    ) or (stmt.having is not None and find_aggregates(stmt.having))
    aggregate = (
        _prepare_aggregate(stmt, items, resolver) if has_aggregates else None
    )

    where = stmt.where
    conjuncts = split_conjuncts(where)
    stream_group = False
    order_spec = None
    if has_aggregates:
        group_spec = _group_order_spec(stmt, alias_map, binding, table)
        plan = plan_scan(table, where, binding=binding)
        if group_spec is not None:
            ordered = plan_scan(table, where, binding=binding,
                                order_spec=group_spec)
            plain_path, _out = _estimate_scan(table, plan, conjuncts, binding)
            ordered_path, _out2 = _estimate_scan(table, ordered, conjuncts,
                                                 binding)
            # stream only when ordering the input costs nothing in
            # access-path quality (no index filtering given up for the
            # walk).  A full index walk's per-row heap reads cost more
            # than the batch scan and hash table they replace, so it
            # streams only when group order elides the sort or a LIMIT
            # sits directly on the aggregate
            walk_pays = aggregate[1] if stmt.order_by else stmt.limit is not None
            if (ordered.order_satisfied and ordered_path <= plain_path
                    and (ordered.kind != INDEX_ORDER or walk_pays)):
                plan = ordered
                stream_group = True
    else:
        order_spec = _order_spec(stmt, alias_map, binding, table)
        plan = plan_scan(table, where, binding=binding, order_spec=order_spec)
    plan = _maybe_demote_index(table, plan, where, conjuncts, binding,
                               stream_group)
    order_served = order_spec is not None and plan.order_satisfied

    path_est, out_est = _estimate_scan(table, plan, conjuncts, binding)
    node = nodes.Scan(table, plan, path_est)
    if plan.residual is not None:
        node = nodes.Filter(node, plan.residual,
                            compile_expr(plan.residual, resolver), out_est)

    group_est = (
        _estimate_groups(stmt, alias_map, binding, table, out_est)
        if has_aggregates else None
    )
    names, root = _finish_select(
        stmt, items, alias_map, resolver, node, out_est, aggregate,
        group_est, stream_group, order_served,
    )
    root = _vectorize(root, resolver, db.vectorize)
    return SelectPlan(stmt, root, names, resolver, items, (table.name,))


def _maybe_demote_index(table: Table, plan: ScanPlan, pushed_where,
                        conjuncts, binding, stream_group: bool) -> ScanPlan:
    """Demote a broad index walk or probe back to a sequential scan.

    An index path returning most of the table is cheaper as SeqScan +
    Filter than as a leaf-chasing B+tree walk with a heap lookup per
    hit: the path demotes when ``INDEX_RANGE_ROW_COST * est_rows``
    exceeds ``SEQ_ROW_COST * n_rows``.  Under the exact counts and flat
    defaults above that is one rule: an equality probe whose covering
    index holds a single distinct non-NULL key demotes once the table
    holds :data:`DEMOTE_MIN_ROWS` rows; range walks (0.3 or 0.25 of the
    rows) never do.  Plans whose walk order serves the query's ORDER BY
    (or a streaming GROUP BY) are never demoted: they elide a sort,
    which the row-cost comparison does not see.
    """
    if (plan.kind not in (INDEX_RANGE, INDEX_EQ) or plan.order_satisfied
            or stream_group):
        return plan
    if table.n_rows < DEMOTE_MIN_ROWS:
        return plan
    path_est, _out = _estimate_scan(table, plan, conjuncts, binding)
    if path_est * INDEX_RANGE_ROW_COST <= float(table.n_rows) * SEQ_ROW_COST:
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
                   aggregate, group_est: float | None, stream_group: bool,
                   order_served: bool):
    """Build the top of the tree: aggregate/project, order, distinct, limit.

    ``aggregate`` is :func:`_prepare_aggregate`'s ``(spec, elide_sort)``
    for an aggregate query, else None; ``group_est`` is then its estimated
    group count."""
    names = [output_name(item) for item in items]
    limit_value = _limit_literal(stmt.limit) if stmt.limit is not None else None
    offset_value = _limit_literal(stmt.offset) if stmt.offset is not None else 0

    if aggregate is not None:
        spec, elide_sort = aggregate
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
