"""Abstract syntax tree for the minidb SQL dialect.

All nodes are frozen dataclasses, so structural equality (used by the
aggregate rewriter to match GROUP BY expressions) comes for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Literal:
    """A constant value (int, float, str or None).

    Equality and hashing are *type-aware* (``1 != 1.0 != True``), unlike
    plain Python numeric equality — literals of different storage classes
    behave differently at runtime (``typeof``, stored affinity), and the
    plan cache and value-compiler memo key on structural equality, so
    numerically-equal literals must not collide.
    """

    value: object

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Literal)
            and type(other.value) is type(self.value)
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((type(self.value).__name__, self.value))


@dataclass(frozen=True)
class Param:
    """A positional ``?`` parameter, numbered left to right from 0."""

    index: int


@dataclass(frozen=True)
class ColumnRef:
    """A possibly table-qualified column reference."""

    table: Optional[str]
    name: str


@dataclass(frozen=True)
class SlotRef:
    """Internal: reference into an intermediate row produced by aggregation."""

    index: int


@dataclass(frozen=True)
class Unary:
    """Unary operator: ``-``, ``+`` or ``NOT``."""

    op: str
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    """Binary operator: arithmetic, comparison, AND/OR, ``||``."""

    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Between:
    """``expr [NOT] BETWEEN low AND high``."""

    expr: "Expr"
    low: "Expr"
    high: "Expr"
    negated: bool = False


@dataclass(frozen=True)
class InList:
    """``expr [NOT] IN (items...)``."""

    expr: "Expr"
    items: tuple
    negated: bool = False


@dataclass(frozen=True)
class IsNull:
    """``expr IS [NOT] NULL``."""

    expr: "Expr"
    negated: bool = False


@dataclass(frozen=True)
class Like:
    """``expr [NOT] LIKE pattern`` (case-insensitive, % and _ wildcards)."""

    expr: "Expr"
    pattern: "Expr"
    negated: bool = False


@dataclass(frozen=True)
class FuncCall:
    """A function call; ``is_star`` marks ``COUNT(*)``."""

    name: str
    args: tuple
    distinct: bool = False
    is_star: bool = False


@dataclass(frozen=True)
class Cast:
    """``CAST(expr AS type)``."""

    expr: "Expr"
    type_name: str


@dataclass(frozen=True)
class Case:
    """``CASE [operand] WHEN ... THEN ... [ELSE ...] END``."""

    operand: Optional["Expr"]
    whens: tuple  # of (condition_expr, result_expr)
    else_result: Optional["Expr"]


Expr = Union[
    Literal, Param, ColumnRef, SlotRef, Unary, Binary, Between, InList,
    IsNull, Like, FuncCall, Cast, Case,
]

# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One projection: an expression with an optional alias, or ``*``."""

    expr: Optional[Expr]  # None means '*'
    alias: Optional[str] = None
    star_table: Optional[str] = None  # for 'alias.*'

    @property
    def is_star(self) -> bool:
        return self.expr is None


@dataclass(frozen=True)
class TableRef:
    """A table name with an optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name this table is referred to by in the query scope."""
        return self.alias or self.name


@dataclass(frozen=True)
class Join:
    """``[INNER|LEFT] JOIN table ON condition``."""

    table: TableRef
    on: Expr
    kind: str = "INNER"


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key with direction."""

    expr: Expr
    ascending: bool = True


@dataclass(frozen=True)
class SelectStmt:
    """A full SELECT statement."""

    items: tuple  # of SelectItem
    table: Optional[TableRef]
    joins: tuple = ()
    where: Optional[Expr] = None
    group_by: tuple = ()
    having: Optional[Expr] = None
    order_by: tuple = ()
    limit: Optional[Expr] = None
    offset: Optional[Expr] = None
    distinct: bool = False


@dataclass(frozen=True)
class InsertStmt:
    """``INSERT INTO table [(cols)] VALUES (...), (...)``."""

    table: str
    columns: tuple
    rows: tuple  # of tuples of Expr


@dataclass(frozen=True)
class UpdateStmt:
    """``UPDATE table SET col = expr, ... [WHERE ...]``."""

    table: str
    assignments: tuple  # of (column_name, Expr)
    where: Optional[Expr] = None


@dataclass(frozen=True)
class DeleteStmt:
    """``DELETE FROM table [WHERE ...]``."""

    table: str
    where: Optional[Expr] = None


@dataclass(frozen=True)
class ColumnDefAst:
    """A column definition inside CREATE TABLE."""

    name: str
    type_name: str


@dataclass(frozen=True)
class CreateTableStmt:
    """``CREATE TABLE [IF NOT EXISTS] name (col type, ...)``."""

    name: str
    columns: tuple  # of ColumnDefAst
    if_not_exists: bool = False


@dataclass(frozen=True)
class CreateIndexStmt:
    """``CREATE [UNIQUE] INDEX [IF NOT EXISTS] name ON table (cols)``.

    Every index is a B+tree; a trailing ``USING btree|hash`` (as older
    WAL tails spell it) parses and is discarded."""

    name: str
    table: str
    columns: tuple
    unique: bool = False
    if_not_exists: bool = False


@dataclass(frozen=True)
class DropTableStmt:
    """``DROP TABLE [IF EXISTS] name``."""

    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class DropIndexStmt:
    """``DROP INDEX [IF EXISTS] name``."""

    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class AlterAddColumnStmt:
    """``ALTER TABLE table ADD COLUMN col type``."""

    table: str
    column: ColumnDefAst


@dataclass(frozen=True)
class BeginStmt:
    """``BEGIN [TRANSACTION]``."""


@dataclass(frozen=True)
class CommitStmt:
    """``COMMIT``."""


@dataclass(frozen=True)
class RollbackStmt:
    """``ROLLBACK``."""


@dataclass(frozen=True)
class ExplainStmt:
    """``EXPLAIN [ANALYZE] <statement>`` — returns the plan as text rows.

    With ``analyze`` the statement (SELECT only) is executed and every
    operator is annotated with the rows it actually produced."""

    statement: object
    analyze: bool = False


Statement = Union[
    SelectStmt, InsertStmt, UpdateStmt, DeleteStmt, CreateTableStmt,
    CreateIndexStmt, DropTableStmt, DropIndexStmt, AlterAddColumnStmt,
    BeginStmt, CommitStmt, RollbackStmt, ExplainStmt,
]


def statement_exprs(stmt: Statement):
    """Yield every top-level expression tree embedded in a statement.

    The prepared-statement layer walks these (via :func:`walk`) to count
    parameter slots, so bind-arity errors surface at ``execute()`` time
    with a clear message instead of an ``IndexError`` mid-scan.
    """
    if isinstance(stmt, ExplainStmt):
        yield from statement_exprs(stmt.statement)
        return
    if isinstance(stmt, SelectStmt):
        for item in stmt.items:
            if item.expr is not None:
                yield item.expr
        for join in stmt.joins:
            yield join.on
        if stmt.where is not None:
            yield stmt.where
        yield from stmt.group_by
        if stmt.having is not None:
            yield stmt.having
        for order in stmt.order_by:
            yield order.expr
        if stmt.limit is not None:
            yield stmt.limit
        if stmt.offset is not None:
            yield stmt.offset
        return
    if isinstance(stmt, InsertStmt):
        for row in stmt.rows:
            yield from row
        return
    if isinstance(stmt, UpdateStmt):
        for _column, expr in stmt.assignments:
            yield expr
        if stmt.where is not None:
            yield stmt.where
        return
    if isinstance(stmt, DeleteStmt):
        if stmt.where is not None:
            yield stmt.where


def n_params(stmt: Statement) -> int:
    """Number of parameter slots a statement binds (max ``?`` index + 1)."""
    highest = 0
    for root in statement_exprs(stmt):
        for node in walk(root):
            if isinstance(node, Param):
                highest = max(highest, node.index + 1)
    return highest


def walk(expr: Expr):
    """Yield ``expr`` and every sub-expression, depth-first."""
    yield expr
    children: tuple
    if isinstance(expr, Unary):
        children = (expr.operand,)
    elif isinstance(expr, Binary):
        children = (expr.left, expr.right)
    elif isinstance(expr, Between):
        children = (expr.expr, expr.low, expr.high)
    elif isinstance(expr, InList):
        children = (expr.expr, *expr.items)
    elif isinstance(expr, (IsNull,)):
        children = (expr.expr,)
    elif isinstance(expr, Like):
        children = (expr.expr, expr.pattern)
    elif isinstance(expr, FuncCall):
        children = expr.args
    elif isinstance(expr, Cast):
        children = (expr.expr,)
    elif isinstance(expr, Case):
        parts = []
        if expr.operand is not None:
            parts.append(expr.operand)
        for when, then in expr.whens:
            parts.extend((when, then))
        if expr.else_result is not None:
            parts.append(expr.else_result)
        children = tuple(parts)
    else:
        children = ()
    for child in children:
        yield from walk(child)
