"""Expression compiler: AST -> Python closures over a row.

Each expression compiles once per statement into a tree of nested closures,
so the per-row cost during execution is plain function calls — the hot path
the Table 1 benchmark exercises thousands of times.

Semantics:

* three-valued logic — comparisons with NULL yield NULL; ``AND``/``OR``
  follow Kleene logic; ``WHERE`` treats NULL as false;
* cross-storage-class comparisons order numbers before text (SQLite style);
  equality between a number and text is simply false;
* arithmetic with NULL yields NULL; division by zero yields NULL.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable

from repro.errors import ExecutionError, PlanningError
from repro.minidb import ast_nodes as ast
from repro.minidb.functions import call_scalar, is_aggregate

RowFn = Callable[[tuple, tuple], object]
"""Compiled expression: ``fn(row, params) -> value``."""


class Resolver:
    """Maps column references to positions in the runtime row.

    ``columns`` maps the column names of the one table a statement
    reads to row positions; ``binding`` is the name (table name or
    alias) a qualified reference must use.  The empty resolver — no
    binding, no columns — compiles constants and parameter slots.
    """

    def __init__(self, binding: str | None = None,
                 columns: dict[str, int] | None = None):
        self.binding = binding
        self.columns = columns or {}

    @classmethod
    def for_table(cls, binding: str, columns: list[str], rowid_position: int | None = 0,
                  offset: int = 1) -> "Resolver":
        """Resolver for a single table laid out as ``[rowid, col0, col1...]``."""
        mapping = {name: offset + i for i, name in enumerate(columns)}
        if rowid_position is not None:
            mapping.setdefault("rowid", rowid_position)
        return cls(binding, mapping)

    def resolve(self, ref: ast.ColumnRef) -> int:
        position = None
        if ref.table is None or ref.table == self.binding:
            position = self.columns.get(ref.name)
        if position is not None:
            return position
        if ref.table is not None:
            raise PlanningError(f"unknown column {ref.table}.{ref.name}")
        raise PlanningError(
            f"unknown column {ref.name!r} "
            f"(known: {', '.join(sorted(self.columns))})"
        )


def compile_expr(expr: ast.Expr, resolver: Resolver) -> RowFn:
    """Compile ``expr`` into a closure ``fn(row, params)``."""
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row, params: value
    if isinstance(expr, ast.Param):
        index = expr.index
        return lambda row, params: params[index]
    if isinstance(expr, ast.ColumnRef):
        position = resolver.resolve(expr)
        return lambda row, params: row[position]
    if isinstance(expr, ast.SlotRef):
        position = expr.index
        return lambda row, params: row[position]
    if isinstance(expr, ast.Unary):
        return _compile_unary(expr, resolver)
    if isinstance(expr, ast.Binary):
        return _compile_binary(expr, resolver)
    if isinstance(expr, ast.Between):
        return _compile_between(expr, resolver)
    if isinstance(expr, ast.InList):
        return _compile_in(expr, resolver)
    if isinstance(expr, ast.IsNull):
        inner = compile_expr(expr.expr, resolver)
        if expr.negated:
            return lambda row, params: inner(row, params) is not None
        return lambda row, params: inner(row, params) is None
    if isinstance(expr, ast.Like):
        return _compile_like(expr, resolver)
    if isinstance(expr, ast.FuncCall):
        if is_aggregate(expr.name):
            raise PlanningError(
                f"aggregate {expr.name}() used outside an aggregation context"
            )
        arg_fns = [compile_expr(arg, resolver) for arg in expr.args]
        name = expr.name
        return lambda row, params: call_scalar(
            name, tuple(fn(row, params) for fn in arg_fns)
        )
    if isinstance(expr, ast.Cast):
        return _compile_cast(expr, resolver)
    if isinstance(expr, ast.Case):
        return _compile_case(expr, resolver)
    raise PlanningError(f"cannot compile expression node {type(expr).__name__}")


@lru_cache(maxsize=1024)
def compile_value(expr: ast.Expr) -> RowFn:
    """Compile a row-independent expression — the parameter-slot binder.

    These are the expressions a cached plan re-evaluates per execution
    (eq/range bounds, prefix values, LIMIT/OFFSET): pure literals and
    ``?`` slots, never column references.  Compilation is memoized by the
    expression's structural equality (AST nodes are frozen dataclasses),
    so rebinding a cached plan costs one dict hit per slot instead of a
    fresh closure build.
    """
    return compile_expr(expr, Resolver())


def truthy(value) -> bool:
    """SQL WHERE semantics: NULL, 0 and empty text are false."""
    return bool(value)


# ---------------------------------------------------------------------------
# value semantics
# ---------------------------------------------------------------------------


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def sql_equal(a, b):
    """Equality with NULL propagation; number/text never compare equal."""
    if a is None or b is None:
        return None
    if _is_number(a) and _is_number(b):
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if isinstance(a, bool) or isinstance(b, bool):
        return bool(a) == bool(b) if type(a) is type(b) else a == b
    return False


def sql_compare(a, b):
    """Total comparison for non-NULL values: numbers < text; None on NULL."""
    if a is None or b is None:
        return None
    rank_a, rank_b = _rank(a), _rank(b)
    if rank_a != rank_b:
        return -1 if rank_a < rank_b else 1
    if rank_a == 0:  # exact, int against float included
        return (a > b) - (a < b)
    sa, sb = str(a), str(b)
    return (sa > sb) - (sa < sb)


def _rank(value) -> int:
    return 0 if _is_number(value) or isinstance(value, bool) else 1


# ---------------------------------------------------------------------------
# compilers per node type
# ---------------------------------------------------------------------------


def _compile_unary(expr: ast.Unary, resolver: Resolver) -> RowFn:
    inner = compile_expr(expr.operand, resolver)
    if expr.op == "NOT":
        def negate(row, params):
            value = inner(row, params)
            if value is None:
                return None
            return 0 if truthy(value) else 1
        return negate
    if expr.op == "-":
        def neg(row, params):
            value = inner(row, params)
            if value is None:
                return None
            if not _is_number(value):
                raise ExecutionError(f"cannot negate {value!r}")
            return -value
        return neg
    return inner  # unary '+'


def _arith(op: str):
    def add(a, b):
        return a + b

    def sub(a, b):
        return a - b

    def mul(a, b):
        return a * b

    def div(a, b):
        if b == 0:
            return None
        return a / b

    def mod(a, b):
        if b == 0:
            return None
        return a % b

    return {"+": add, "-": sub, "*": mul, "/": div, "%": mod}[op]


def _compile_binary(expr: ast.Binary, resolver: Resolver) -> RowFn:
    op = expr.op
    left = compile_expr(expr.left, resolver)
    right = compile_expr(expr.right, resolver)

    if op == "AND":
        def kleene_and(row, params):
            a = left(row, params)
            if a is not None and not truthy(a):
                return 0
            b = right(row, params)
            if b is not None and not truthy(b):
                return 0
            if a is None or b is None:
                return None
            return 1
        return kleene_and
    if op == "OR":
        def kleene_or(row, params):
            a = left(row, params)
            if a is not None and truthy(a):
                return 1
            b = right(row, params)
            if b is not None and truthy(b):
                return 1
            if a is None or b is None:
                return None
            return 0
        return kleene_or
    if op == "=":
        def eq(row, params):
            result = sql_equal(left(row, params), right(row, params))
            return None if result is None else int(result)
        return eq
    if op == "<>":
        def ne(row, params):
            result = sql_equal(left(row, params), right(row, params))
            return None if result is None else int(not result)
        return ne
    if op in ("<", "<=", ">", ">="):
        checks = {
            "<": lambda c: c < 0,
            "<=": lambda c: c <= 0,
            ">": lambda c: c > 0,
            ">=": lambda c: c >= 0,
        }
        check = checks[op]

        def cmp(row, params):
            result = sql_compare(left(row, params), right(row, params))
            return None if result is None else int(check(result))
        return cmp
    if op == "||":
        def concat(row, params):
            a, b = left(row, params), right(row, params)
            if a is None or b is None:
                return None
            return str(a) + str(b)
        return concat
    fn = _arith(op)

    def arith(row, params):
        a, b = left(row, params), right(row, params)
        if a is None or b is None:
            return None
        if not (_is_number(a) and _is_number(b)):
            raise ExecutionError(f"arithmetic on non-numeric values {a!r}, {b!r}")
        return fn(a, b)
    return arith


def _compile_between(expr: ast.Between, resolver: Resolver) -> RowFn:
    value_fn = compile_expr(expr.expr, resolver)
    low_fn = compile_expr(expr.low, resolver)
    high_fn = compile_expr(expr.high, resolver)
    negated = expr.negated

    def between(row, params):
        value = value_fn(row, params)
        low = low_fn(row, params)
        high = high_fn(row, params)
        lo_cmp = sql_compare(value, low)
        hi_cmp = sql_compare(value, high)
        if lo_cmp is None or hi_cmp is None:
            return None
        inside = lo_cmp >= 0 and hi_cmp <= 0
        return int(inside != negated)
    return between


def _compile_in(expr: ast.InList, resolver: Resolver) -> RowFn:
    value_fn = compile_expr(expr.expr, resolver)
    item_fns = [compile_expr(item, resolver) for item in expr.items]
    negated = expr.negated

    def contains(row, params):
        value = value_fn(row, params)
        if value is None:
            return None
        saw_null = False
        for fn in item_fns:
            item = fn(row, params)
            result = sql_equal(value, item)
            if result is None:
                saw_null = True
            elif result:
                return int(not negated)
        if saw_null:
            return None
        return int(negated)
    return contains


def _compile_like(expr: ast.Like, resolver: Resolver) -> RowFn:
    value_fn = compile_expr(expr.expr, resolver)
    pattern_fn = compile_expr(expr.pattern, resolver)
    negated = expr.negated
    cache: dict[str, re.Pattern] = {}

    def like(row, params):
        value = value_fn(row, params)
        pattern = pattern_fn(row, params)
        if value is None or pattern is None:
            return None
        regex = cache.get(pattern)
        if regex is None:
            regex = _like_to_regex(str(pattern))
            cache[pattern] = regex
        matched = regex.match(str(value)) is not None
        return int(matched != negated)
    return like


def _like_to_regex(pattern: str) -> re.Pattern:
    parts = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("^" + "".join(parts) + "$", re.IGNORECASE | re.DOTALL)


_CAST_AFFINITY = {
    "INT": "integer", "INTEGER": "integer", "BIGINT": "integer",
    "REAL": "real", "FLOAT": "real", "DOUBLE": "real", "NUMERIC": "real",
    "TEXT": "text", "VARCHAR": "text", "CHAR": "text", "STRING": "text",
}


def _compile_cast(expr: ast.Cast, resolver: Resolver) -> RowFn:
    inner = compile_expr(expr.expr, resolver)
    target = _CAST_AFFINITY.get(expr.type_name.split()[0].upper())
    if target is None:
        raise PlanningError(f"unknown CAST target type {expr.type_name!r}")

    def cast(row, params):
        value = inner(row, params)
        if value is None:
            return None
        if target == "text":
            return str(value)
        if target == "integer":
            try:
                return int(float(value))
            except (TypeError, ValueError):
                return 0
        try:
            return float(value)
        except (TypeError, ValueError):
            return 0.0
    return cast


def _compile_case(expr: ast.Case, resolver: Resolver) -> RowFn:
    operand_fn = compile_expr(expr.operand, resolver) if expr.operand is not None else None
    when_fns = [
        (compile_expr(when, resolver), compile_expr(then, resolver))
        for when, then in expr.whens
    ]
    else_fn = compile_expr(expr.else_result, resolver) if expr.else_result is not None else None

    def case(row, params):
        if operand_fn is not None:
            subject = operand_fn(row, params)
            for when_fn, then_fn in when_fns:
                if truthy(sql_equal(subject, when_fn(row, params))):
                    return then_fn(row, params)
        else:
            for when_fn, then_fn in when_fns:
                if truthy(when_fn(row, params)):
                    return then_fn(row, params)
        return else_fn(row, params) if else_fn is not None else None
    return case


def render_expr(expr: ast.Expr) -> str:
    """Compact one-line rendering (EXPLAIN labels, output column names)."""
    if isinstance(expr, ast.Literal):
        return repr(expr.value)
    if isinstance(expr, ast.ColumnRef):
        return expr.name if expr.table is None else f"{expr.table}.{expr.name}"
    if isinstance(expr, ast.Binary):
        return f"{render_expr(expr.left)} {expr.op} {render_expr(expr.right)}"
    if isinstance(expr, ast.Unary):
        return f"{expr.op}{render_expr(expr.operand)}"
    if isinstance(expr, ast.FuncCall):
        inner = "*" if expr.is_star else ", ".join(render_expr(a) for a in expr.args)
        return f"{expr.name.lower()}({inner})"
    return type(expr).__name__.lower()


def find_aggregates(expr: ast.Expr) -> list[ast.FuncCall]:
    """All aggregate function calls in ``expr`` (in tree order)."""
    return [
        node for node in ast.walk(expr)
        if isinstance(node, ast.FuncCall) and is_aggregate(node.name)
    ]


# ---------------------------------------------------------------------------
# vectorized predicate kernels (batch execution mode)
# ---------------------------------------------------------------------------
#
# A kernel evaluates one WHERE conjunct against a whole column batch:
# ``kernel(cols, indices, params) -> surviving index list``.  ``cols`` is
# the batch's positional column list (same layout the row pipeline uses),
# ``indices`` the incoming selection vector.  Chaining the kernels of an
# AND's conjuncts is equivalent to row-mode ``truthy(fn(row))`` filtering
# because a row survives ``a AND b`` exactly when every conjunct is
# truthy for it (Kleene AND: any false -> 0, any NULL -> NULL, both
# dropped by WHERE).  Recognized column-vs-value shapes compile to tight
# per-column loops that inline ``sql_equal``/``sql_compare`` semantics;
# anything else falls back to a kernel that rebuilds rows and calls the
# ordinary compiled closure, so every predicate stays exact.

_EMPTY_ROW: tuple = ()

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}

_CMP_CHECKS = {
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}

_FAST_TYPES = (int, float, str, bool)
#: sql_compare rank 0 — numbers, bools included (bool is an int subclass)
_NUM = (int, float)


def compile_filter_kernels(expr: ast.Expr, resolver: Resolver) -> list:
    """Compile a predicate into one selection-vector kernel per conjunct."""
    return [_conjunct_kernel(c, resolver) for c in _split_and(expr)]


def _split_and(expr: ast.Expr) -> list:
    if isinstance(expr, ast.Binary) and expr.op == "AND":
        return _split_and(expr.left) + _split_and(expr.right)
    return [expr]


def _column_position(expr: ast.Expr, resolver: Resolver) -> int | None:
    if isinstance(expr, ast.ColumnRef):
        return resolver.resolve(expr)
    if isinstance(expr, ast.SlotRef):
        return expr.index
    return None


def _row_independent(expr: ast.Expr) -> bool:
    return not any(
        isinstance(node, (ast.ColumnRef, ast.SlotRef)) for node in ast.walk(expr)
    )


def _conjunct_kernel(expr: ast.Expr, resolver: Resolver):
    if isinstance(expr, ast.Binary) and expr.op in _FLIP:
        pos = _column_position(expr.left, resolver)
        value, op = expr.right, expr.op
        if pos is None:
            pos = _column_position(expr.right, resolver)
            value, op = expr.left, _FLIP[expr.op]
        if pos is not None and _row_independent(value):
            bound_fn = compile_value(value)
            if op == "=":
                return _eq_kernel(pos, bound_fn, negated=False)
            if op == "<>":
                return _eq_kernel(pos, bound_fn, negated=True)
            return _cmp_kernel(pos, bound_fn, op)
    elif isinstance(expr, ast.Between):
        pos = _column_position(expr.expr, resolver)
        if pos is not None and _row_independent(expr.low) and _row_independent(expr.high):
            return _between_kernel(
                pos, compile_value(expr.low), compile_value(expr.high), expr.negated
            )
    elif isinstance(expr, ast.InList):
        pos = _column_position(expr.expr, resolver)
        if pos is not None and all(_row_independent(item) for item in expr.items):
            return _in_kernel(pos, [compile_value(item) for item in expr.items], expr.negated)
    elif isinstance(expr, ast.IsNull):
        pos = _column_position(expr.expr, resolver)
        if pos is not None:
            return _is_null_kernel(pos, expr.negated)
    return _row_kernel(expr, resolver)


def _eq_kernel(pos: int, bound_fn: RowFn, negated: bool):
    # For non-NULL v and a bound of a standard storage type, Python's
    # ``v == bound`` coincides with sql_equal (number/text never equal,
    # bool-vs-number falls through to ``==`` in both).  NULL bound means
    # every comparison is NULL -> empty selection.
    def kernel(cols, indices, params):
        bound = bound_fn(_EMPTY_ROW, params)
        if bound is None:
            return []
        col = cols[pos]
        if type(bound) in _FAST_TYPES:
            if negated:
                return [i for i in indices if (v := col[i]) is not None and v != bound]
            return [i for i in indices if (v := col[i]) is not None and v == bound]
        out = []
        for i in indices:
            result = sql_equal(col[i], bound)
            if result is not None and bool(result) != negated:
                out.append(i)
        return out

    return kernel


def _cmp_kernel(pos: int, bound_fn: RowFn, op: str):
    check = _CMP_CHECKS[op]
    # The listcomps below inline sql_compare: numbers (bools included)
    # compare exactly, a rank mismatch decides without looking at the
    # values (numbers < text), and the NaN-exact forms of the inclusive
    # ops are the *negated* strict comparisons — sql_compare's c-form
    # yields 0 for NaN, which passes <= and >= but not < and >.

    def kernel(cols, indices, params):
        bound = bound_fn(_EMPTY_ROW, params)
        if bound is None:
            return []
        col = cols[pos]
        if isinstance(bound, (int, float)):  # rank 0, bools included
            if op == "<":
                return [i for i in indices if (v := col[i]) is not None
                        and isinstance(v, _NUM) and v < bound]
            if op == "<=":
                return [i for i in indices if (v := col[i]) is not None
                        and isinstance(v, _NUM) and not v > bound]
            if op == ">":
                return [i for i in indices if (v := col[i]) is not None
                        and (not isinstance(v, _NUM) or v > bound)]
            return [i for i in indices if (v := col[i]) is not None
                    and (not isinstance(v, _NUM) or not v < bound)]
        if isinstance(bound, str):
            if op == "<":
                return [i for i in indices if (v := col[i]) is not None
                        and (isinstance(v, _NUM) or str(v) < bound)]
            if op == "<=":
                return [i for i in indices if (v := col[i]) is not None
                        and (isinstance(v, _NUM) or str(v) <= bound)]
            if op == ">":
                return [i for i in indices if (v := col[i]) is not None
                        and not isinstance(v, _NUM) and str(v) > bound]
            return [i for i in indices if (v := col[i]) is not None
                    and not isinstance(v, _NUM) and str(v) >= bound]
        out = []
        append = out.append
        for i in indices:
            c = sql_compare(col[i], bound)
            if c is not None and check(c):
                append(i)
        return out

    return kernel


def _between_kernel(pos: int, low_fn: RowFn, high_fn: RowFn, negated: bool):
    def kernel(cols, indices, params):
        low = low_fn(_EMPTY_ROW, params)
        high = high_fn(_EMPTY_ROW, params)
        if low is None or high is None:
            return []  # NULL bound -> NULL result for every row
        col = cols[pos]
        out = []
        append = out.append
        if isinstance(low, (int, float)) and isinstance(high, (int, float)):
            # inside == (c_lo >= 0 and c_hi <= 0); text ranks above both
            # numeric bounds, so non-numbers are never inside
            if negated:
                return [i for i in indices if (v := col[i]) is not None
                        and (not isinstance(v, _NUM) or v < low or v > high)]
            return [i for i in indices if (v := col[i]) is not None
                    and isinstance(v, _NUM) and not v < low and not v > high]
        else:
            for i in indices:
                v = col[i]
                if v is None:
                    continue
                inside = sql_compare(v, low) >= 0 and sql_compare(v, high) <= 0
                if inside != negated:
                    append(i)
        return out

    return kernel


def _in_kernel(pos: int, item_fns: list, negated: bool):
    def kernel(cols, indices, params):
        items = [fn(_EMPTY_ROW, params) for fn in item_fns]
        saw_null = False
        values = []
        fast = True
        for item in items:
            if item is None:
                saw_null = True
            else:
                values.append(item)
                if type(item) not in _FAST_TYPES:
                    fast = False
        if negated and saw_null:
            return []  # NOT IN with a NULL item never yields true
        col = cols[pos]
        if fast:
            member = set(values)
            if negated:
                return [i for i in indices if (v := col[i]) is not None and v not in member]
            return [i for i in indices if (v := col[i]) is not None and v in member]
        out = []
        for i in indices:
            v = col[i]
            if v is None:
                continue
            matched = False
            for item in values:
                if sql_equal(v, item):
                    matched = True
                    break
            if matched:
                if not negated:
                    out.append(i)
            elif negated and not saw_null:
                out.append(i)
        return out

    return kernel


def _is_null_kernel(pos: int, negated: bool):
    if negated:  # IS NOT NULL
        def kernel(cols, indices, params):
            col = cols[pos]
            return [i for i in indices if col[i] is not None]
    else:
        def kernel(cols, indices, params):
            col = cols[pos]
            return [i for i in indices if col[i] is None]
    return kernel


def _row_kernel(expr: ast.Expr, resolver: Resolver):
    """Exact fallback: rebuild each row and apply the compiled closure."""
    fn = compile_expr(expr, resolver)

    def kernel(cols, indices, params):
        out = []
        append = out.append
        for i in indices:
            row = [c[i] for c in cols]
            if truthy(fn(row, params)):
                append(i)
        return out

    return kernel
