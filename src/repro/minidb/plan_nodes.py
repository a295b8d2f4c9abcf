"""Typed physical plan IR for minidb SELECT statements.

The planner (:mod:`repro.minidb.planner`) compiles a SELECT into a tree
of the nodes defined here; the executor (:mod:`repro.minidb.executor`)
is a dispatcher over node types.  Every node carries ``estimated_rows``
from the statistics layer (:mod:`repro.minidb.stats`), and
:func:`render_tree` turns the tree into the indented text EXPLAIN
returns — ``EXPLAIN ANALYZE`` additionally records the *actual* row
count each operator produced.

The tree is a single chain: one table's access path (a :class:`Scan`,
possibly under a :class:`Filter`) at the bottom, then aggregation or
projection, ordering, DISTINCT and LIMIT above it.
"""

from __future__ import annotations

from repro.minidb.expressions import render_expr

_MAX_LABEL_ITEMS = 6


def _fmt_rows(value) -> str:
    if value is None:
        return "?"
    return str(int(round(max(0.0, float(value)))))


class PlanNode:
    """Base physical operator: children plus an estimated output size."""

    estimated_rows: float | None = None

    def children(self) -> tuple:
        return ()

    def label(self) -> str:  # pragma: no cover - subclasses override
        return type(self).__name__


class Scan(PlanNode):
    """A chosen table access path (wraps the planner's :class:`ScanPlan`).

    The residual predicate, if any, is lifted into a :class:`Filter`
    above this node; ``plan.residual`` is kept for the access-path
    machinery but never applied by the scan itself.
    """

    __slots__ = ("table", "plan", "estimated_rows")

    def __init__(self, table, plan, estimated_rows=None):
        self.table = table
        self.plan = plan
        self.estimated_rows = estimated_rows

    def label(self) -> str:
        return self.plan.describe(include_residual=False)


class Filter(PlanNode):
    """Row filter; ``fn`` is the compiled predicate."""

    __slots__ = ("child", "expr", "fn", "estimated_rows")

    def __init__(self, child, expr, fn, estimated_rows=None):
        self.child = child
        self.expr = expr
        self.fn = fn
        self.estimated_rows = estimated_rows

    def children(self) -> tuple:
        return (self.child,)

    def label(self) -> str:
        return f"Filter({render_expr(self.expr)})"


class AggregateSpec:
    """Prepared aggregation context shared by both aggregate strategies.

    Built once at plan time: grouping expressions compiled against the
    input row, aggregate accumulator specs, and the HAVING / projection /
    ORDER BY expressions rewritten over the intermediate row layout
    ``[group_key_0.., agg_0..]``.
    """

    __slots__ = ("group_exprs", "group_fns", "agg_specs", "having_fn",
                 "item_fns", "order_specs")

    def __init__(self, group_exprs, group_fns, agg_specs, having_fn,
                 item_fns, order_specs):
        self.group_exprs = group_exprs
        self.group_fns = group_fns
        self.agg_specs = agg_specs
        self.having_fn = having_fn
        self.item_fns = item_fns
        self.order_specs = order_specs


class HashAggregate(PlanNode):
    """GROUP BY via a hash of all groups (materializes every group)."""

    __slots__ = ("child", "spec", "estimated_rows")

    def __init__(self, child, spec, estimated_rows=None):
        self.child = child
        self.spec = spec
        self.estimated_rows = estimated_rows

    def children(self) -> tuple:
        return (self.child,)

    def label(self) -> str:
        text = f"HashAggregate(keys={len(self.spec.group_exprs)})"
        if self.spec.having_fn is not None:
            text += " + Having"
        return text


class StreamAggregate(PlanNode):
    """GROUP BY over group-ordered input: finalizes and emits each group
    as soon as the grouping key changes, holding one group at a time."""

    __slots__ = ("child", "spec", "estimated_rows")

    def __init__(self, child, spec, estimated_rows=None):
        self.child = child
        self.spec = spec
        self.estimated_rows = estimated_rows

    def children(self) -> tuple:
        return (self.child,)

    def label(self) -> str:
        text = f"StreamAggregate(keys={len(self.spec.group_exprs)})"
        if self.spec.having_fn is not None:
            text += " + Having"
        return text


class Project(PlanNode):
    """Projects input rows to output tuples via compiled item functions."""

    __slots__ = ("child", "item_fns", "names", "estimated_rows")

    def __init__(self, child, item_fns, names, estimated_rows=None):
        self.child = child
        self.item_fns = item_fns
        self.names = names
        self.estimated_rows = estimated_rows

    def children(self) -> tuple:
        return (self.child,)

    def label(self) -> str:
        names = self.names[:_MAX_LABEL_ITEMS]
        suffix = ", ..." if len(self.names) > _MAX_LABEL_ITEMS else ""
        return f"Project({', '.join(names)}{suffix})"


class Sort(PlanNode):
    """Full sort.  ``mode`` is ``"rows"`` (child is a :class:`Project`
    whose input it sorts) or ``"groups"`` (child is an aggregate node and
    the sort runs over its (intermediate, output) pairs)."""

    __slots__ = ("child", "specs", "n_keys", "mode", "estimated_rows")

    def __init__(self, child, specs, n_keys, mode, estimated_rows=None):
        self.child = child
        self.specs = specs
        self.n_keys = n_keys
        self.mode = mode
        self.estimated_rows = estimated_rows

    def children(self) -> tuple:
        return (self.child,)

    def label(self) -> str:
        return f"Sort(keys={self.n_keys})"


class TopK(PlanNode):
    """Bounded heap of the ``offset+limit`` smallest sort keys (child is
    a :class:`Project` whose input it consumes)."""

    __slots__ = ("child", "specs", "n_keys", "limit_expr", "offset_expr",
                 "estimated_rows")

    def __init__(self, child, specs, n_keys, limit_expr, offset_expr,
                 estimated_rows=None):
        self.child = child
        self.specs = specs
        self.n_keys = n_keys
        self.limit_expr = limit_expr
        self.offset_expr = offset_expr
        self.estimated_rows = estimated_rows

    def children(self) -> tuple:
        return (self.child,)

    def label(self) -> str:
        return f"TopK(keys={self.n_keys})"


class Distinct(PlanNode):
    """Streaming duplicate suppression over output tuples."""

    __slots__ = ("child", "estimated_rows")

    def __init__(self, child, estimated_rows=None):
        self.child = child
        self.estimated_rows = estimated_rows

    def children(self) -> tuple:
        return (self.child,)

    def label(self) -> str:
        return "Distinct"


class Limit(PlanNode):
    """LIMIT/OFFSET; expressions are evaluated at execution time."""

    __slots__ = ("child", "limit_expr", "offset_expr", "estimated_rows")

    def __init__(self, child, limit_expr, offset_expr, estimated_rows=None):
        self.child = child
        self.limit_expr = limit_expr
        self.offset_expr = offset_expr
        self.estimated_rows = estimated_rows

    def children(self) -> tuple:
        return (self.child,)

    def label(self) -> str:
        return "Limit"


class BatchScan(PlanNode):
    """Sequential scan in batch mode: decodes ``BATCH_SIZE`` rows per call
    into positional column vectors (see :mod:`repro.minidb.vector`).

    Only full-table SEQ access paths vectorize; index walks and point
    lookups stay on the row pipeline.  Under an MVCC snapshot the handler
    falls back to batchifying the version-chain row scan, so a cached
    batch plan stays correct inside a transaction."""

    __slots__ = ("table", "plan", "estimated_rows")

    def __init__(self, table, plan, estimated_rows=None):
        self.table = table
        self.plan = plan
        self.estimated_rows = estimated_rows

    def label(self) -> str:
        return f"{self.plan.describe(include_residual=False)} [batch]"


class BatchFilter(PlanNode):
    """Filter in batch mode: per-conjunct column kernels narrow the
    selection vector instead of calling a closure per row."""

    __slots__ = ("child", "expr", "kernels", "estimated_rows")

    def __init__(self, child, expr, kernels, estimated_rows=None):
        self.child = child
        self.expr = expr
        self.kernels = kernels
        self.estimated_rows = estimated_rows

    def children(self) -> tuple:
        return (self.child,)

    def label(self) -> str:
        return f"Filter({render_expr(self.expr)}) [batch]"


class BatchAggregate(PlanNode):
    """GROUP BY over batches: group-id assignment plus per-aggregate
    tight loops (``vector.aggregate_batches``).  Emits the same
    ``[*group_values, *aggregate_finals]`` intermediate rows as the row
    aggregates, so HAVING/projection/ORDER BY post-processing is shared."""

    __slots__ = ("child", "spec", "group_positions", "agg_descs",
                 "estimated_rows")

    def __init__(self, child, spec, group_positions, agg_descs,
                 estimated_rows=None):
        self.child = child
        self.spec = spec
        self.group_positions = group_positions
        self.agg_descs = agg_descs
        self.estimated_rows = estimated_rows

    def children(self) -> tuple:
        return (self.child,)

    def label(self) -> str:
        text = f"HashAggregate(keys={len(self.group_positions)}) [batch]"
        if self.spec.having_fn is not None:
            text += " + Having"
        return text


class BatchToRows(PlanNode):
    """Adapter at the batch->row boundary: re-materializes selected rows
    so any row-mode operator can consume a vectorized subtree."""

    __slots__ = ("child", "estimated_rows")

    def __init__(self, child, estimated_rows=None):
        self.child = child
        self.estimated_rows = estimated_rows

    def children(self) -> tuple:
        return (self.child,)

    def label(self) -> str:
        return "BatchToRows"


def render_tree(root: PlanNode, actual_rows: dict | None = None,
                actual_times: dict | None = None) -> list[str]:
    """Indented text rendering of a plan tree.

    Every line shows the operator label and its estimated output rows;
    with ``actual_rows`` (``{id(node): count}`` from an ANALYZE run) the
    observed count is shown next to the estimate, and with
    ``actual_times`` (``{id(node): seconds}``) the inclusive wall-clock
    time the operator spent producing its output — operator plus its
    subtree — turning the estimate-vs-actual view into a profiler.
    """
    lines: list[str] = []

    def walk(node: PlanNode, depth: int) -> None:
        text = "  " * depth + node.label()
        if node.estimated_rows is not None or actual_rows is not None:
            text += f" [est_rows={_fmt_rows(node.estimated_rows)}"
            if actual_rows is not None:
                observed = actual_rows.get(id(node))
                if observed is not None:
                    text += f" rows={observed}"
            if actual_times is not None:
                seconds = actual_times.get(id(node))
                if seconds is not None:
                    text += f" time={seconds * 1000:.3f}ms"
            text += "]"
        lines.append(text)
        for child in node.children():
            walk(child, depth + 1)

    walk(root, 0)
    return lines
