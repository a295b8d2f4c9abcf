"""Statement execution for minidb: a dispatcher over physical plan nodes.

The planner (:func:`repro.minidb.planner.plan_select`) compiles every
SELECT into a tree of typed operators (:mod:`repro.minidb.plan_nodes`);
this module walks that tree, mapping each node type to a streaming
handler.  Rows flow through the pipeline as Python lists laid out as
``[rowid, col0, col1, ...]`` for the one table a SELECT reads.

Every stage except hash aggregation and full sorts is a generator
pulling rows one at a time, which is what the Table 1 benchmark relies
on:

* ``LIMIT``/``OFFSET`` short-circuit the scan — through filters and
  streaming aggregation;
* ``ORDER BY col LIMIT k`` keeps a bounded heap (top-k) instead of
  sorting the whole input, and skips even that when the planner answers
  with an index-ordered scan;
* a :class:`~repro.minidb.plan_nodes.StreamAggregate` holds one group at
  a time, emitting each as soon as the grouping key changes.

Every read path takes an optional MVCC ``snapshot``, and every index or
rowid access path is one walk with two resolutions: the access path
yields candidate ``(expected_key, rowids)`` groups — point probes, a
rowid list, or a B+tree leaf walk between the index's ``*_bounds`` —
and one resolver turns them into rows.  With no snapshot (the quiescent
single-session case) it reads each live row from ``Table.rows``.  With a
snapshot it resolves version chains
(:func:`repro.minidb.storage.visible_version`) and re-checks each chained
row's visible key against its entry; point probes pull their rowid sets
under the write lock and ordered walks re-seek in short batches under
it, while heap scans capture their rowid set up front — so a streaming
SELECT reads its snapshot to completion regardless of interleaved DML,
and ``IndexOrderScan`` stays correct under concurrent writers.

UPDATE/DELETE plan their scans with the same access-path planner, so
indexed predicates touch only matching rows; under a transaction they
read through its snapshot and stamp version chains (first-updater-wins
conflicts surface as :class:`~repro.errors.SerializationError`, and a
failed statement unwinds to its savepoint).  ``EXPLAIN`` renders the
plan tree with estimated rows; ``EXPLAIN ANALYZE`` executes the SELECT
and shows estimated vs. actual rows per operator.
"""

from __future__ import annotations

import heapq
from contextlib import nullcontext
from itertools import islice
from time import perf_counter

from repro.errors import ExecutionError, PlanningError
from repro.minidb import ast_nodes as ast
from repro.minidb import plan_nodes as nodes
from repro.minidb.expressions import (
    Resolver,
    compile_expr,
    compile_value,
    sort_key,
    truthy,
)
from repro.minidb.functions import make_aggregate, normalize_key
from repro.minidb.invariants import holds_write_lock
from repro.minidb.planner import (
    INDEX_EQ,
    INDEX_IN,
    INDEX_NULL,
    INDEX_ORDER,
    INDEX_RANGE,
    ROWID_EQ,
    ROWID_IN,
    SEQ,
    ScanPlan,
    output_name,
    plan_scan,
)
from repro.minidb.results import ResultSet, StreamingResult
from repro.minidb.storage import Table, visible_version
from repro.minidb.vector import (
    BATCH_SIZE,
    Batch,
    aggregate_batches,
    batches_from_chunks,
    batches_from_rows,
    filter_batch,
)

_EMPTY_ROW: tuple = ()
_NO_LOCK = nullcontext()


def _eval_value(expr: ast.Expr, params: tuple):
    """Evaluate a row-independent expression (a plan's parameter slot)."""
    return compile_value(expr)(_EMPTY_ROW, params)


def scan_rows(table: Table, plan: ScanPlan, params: tuple, snapshot=None):
    """An iterator of ``[rowid, *values]`` rows along the chosen access path.

    The residual predicate is *not* applied here — the plan tree hangs a
    Filter node above the scan (DML paths apply it themselves).  With a
    ``snapshot``, every row resolves through its version chain and index
    hits are re-checked against the visible version's key.  Point probes
    run when this is called; rows are produced as the iterator is pulled.
    """
    if plan.kind == SEQ:
        heap = table.scan() if snapshot is None else table.snapshot_scan(snapshot)
        return ([rowid, *values] for rowid, values in heap)
    groups, keyfn = _candidates(table, plan, params, snapshot)
    return _resolve(table, groups, snapshot, keyfn)


def _candidates(table: Table, plan: ScanPlan, params: tuple, snapshot):
    """``(groups, keyfn)`` for an index or rowid access path.

    ``groups`` iterates candidate ``(expected_key, rowids)`` pairs;
    ``keyfn`` is what a snapshot reader re-checks a chained row's visible
    version with (``keyfn(values) != expected_key`` marks a stale entry),
    or None when the rowids were not reached through an index.
    """
    kind = plan.kind
    if kind == ROWID_EQ or kind == ROWID_IN:
        if kind == ROWID_EQ:
            rowids = (_eval_value(plan.eq_expr, params),)
        else:  # first occurrence of each rowid
            rowids = dict.fromkeys([_eval_value(e, params) for e in plan.in_exprs])
        if snapshot is None:  # the live resolver reads rows[rowid]
            rowids = filter(table.rows.__contains__, rowids)
        return ((None, rowids),), None
    index = table.indexes[plan.index_name]
    if kind == INDEX_NULL:
        return ((True, index.lookup_null()),), index.null_match
    if kind != INDEX_EQ and kind != INDEX_IN:
        return _ordered_walk(index, plan, params, snapshot), index.entry_key
    exprs = (plan.eq_expr,) if kind == INDEX_EQ else plan.in_exprs
    # one probe per distinct key: a row lives under exactly one key, so
    # the groups are disjoint and IN needs no per-row dedup
    keyed = {}
    for expr in exprs:
        values = (_eval_value(expr, params),)
        if values[0] is not None:  # SQL equality never matches NULL
            keyed.setdefault(index.probe_key(values), values)
    # B+tree point probes are Python-level walks; a concurrent GC/writer
    # restructuring the tree could tear them, so a snapshot reader pulls
    # its rowid sets under the write lock (O(log n) hold per probe)
    with _NO_LOCK if snapshot is None else snapshot.lock:
        groups = [(key, index.lookup_values(values))
                  for key, values in keyed.items()]
    return groups, index.entry_key


def _ordered_walk(index, plan: ScanPlan, params: tuple, snapshot):
    """The B+tree group walk behind INDEX_RANGE/PREFIX/ORDER."""
    if plan.kind == INDEX_ORDER:
        bounds = index.order_bounds()
    else:
        low = high = None
        if plan.low_expr is not None:
            low = _eval_value(plan.low_expr, params)
            if low is None:
                return ()  # a comparison with NULL matches nothing
        if plan.high_expr is not None:
            high = _eval_value(plan.high_expr, params)
            if high is None:
                return ()
        if plan.kind == INDEX_RANGE:
            bounds = index.range_bounds(low, high, plan.include_low,
                                        plan.include_high)
        else:
            bounds = index.prefix_bounds(
                tuple(_eval_value(expr, params) for expr in plan.prefix_exprs),
                low=low, high=high,
                include_low=plan.include_low, include_high=plan.include_high,
            )
            if bounds is None:
                return ()
    return index.group_walk(bounds, reverse=plan.descending,
                            lock=snapshot.lock if snapshot is not None else None)


def _resolve(table: Table, groups, snapshot, keyfn):
    """Turn candidate ``(expected_key, rowids)`` groups into rows.

    Without a snapshot each rowid reads its live row.  With one, a rowid
    with a version chain resolves to the version the snapshot sees, and
    that version must still carry the entry's key: an index keeps entries
    for *all* live versions until GC, so a probe can surface a rowid
    whose visible version lives under a different key (skip it — the walk
    meets that version at its own entry, exactly once).
    """
    if snapshot is None:
        rows = table.rows
        for _key, rowids in groups:
            for rowid in rowids:
                yield [rowid, *rows[rowid]]
        return
    rows_get = table.rows.get
    versions_get = table.versions.get
    for key, rowids in groups:
        for rowid in rowids:
            # rows before versions: writers publish the chain first, so a
            # reader that finds no chain holds a pre-mutation row value
            # (the entry and the live row are in sync)
            values = rows_get(rowid)
            chain = versions_get(rowid)
            if chain is not None:
                version = visible_version(chain, snapshot)
                if version is None:
                    continue
                values = version.values
                if keyfn is not None and keyfn(values) != key:
                    continue  # stale entry: this version lives elsewhere
            if values is not None:
                yield [rowid, *values]


# ---------------------------------------------------------------------------
# SELECT execution: the node dispatcher
# ---------------------------------------------------------------------------


def _read_context(db, session, stream: bool):
    session = session if session is not None else db.default_session
    return session.read_context(stream=stream)


class _ReleasingStream:
    """Iterator that runs its release callback exactly once, always.

    A plain generator with ``try/finally`` is not enough here: closing a
    generator that was never advanced skips its ``finally`` (the body
    never entered the ``try``), so a cursor opened and closed without
    fetching would leak its snapshot and pin the GC horizon.  This
    wrapper releases on exhaustion, on error, and on ``close()`` even
    before the first row.
    """

    __slots__ = ("_rows", "_release")

    def __init__(self, rows, release):
        self._rows = iter(rows)
        self._release = release

    def __iter__(self):
        return self

    def __next__(self):
        try:
            return next(self._rows)
        except BaseException:
            self.close()
            raise

    def close(self):
        callback, self._release = self._release, None
        if callback is not None:
            inner = getattr(self._rows, "close", None)
            if inner is not None:
                inner()  # abandon the pipeline's pending work first
            callback()


def _with_release(rows, release):
    return _ReleasingStream(rows, release)


def run_select_plan(plan, params: tuple, stream: bool = False,
                    snapshot=None, release=None):
    """Execute a compiled (possibly cached) plan under one params binding.

    ``release`` (the snapshot release callback) is guaranteed to run —
    on materialization, on stream exhaustion/close, or on any error —
    so a registered snapshot can never leak and pin the GC horizon.
    """
    try:
        out = _run_node(plan.root, params, snapshot, None)
        if stream:
            if release is not None:
                out = _with_release(out, release)
                release = None
            return StreamingResult(plan.names, out)
        return ResultSet(plan.names, list(out))
    finally:
        if release is not None:
            release()


def _select_without_table(stmt: ast.SelectStmt, params: tuple) -> ResultSet:
    resolver = Resolver({})
    items = [item for item in stmt.items]
    if any(item.is_star for item in items):
        raise PlanningError("SELECT * requires a FROM clause")
    fns = [compile_expr(item.expr, resolver) for item in items]
    names = [output_name(item) for item in items]
    row = tuple(fn(_EMPTY_ROW, params) for fn in fns)
    return ResultSet(names, [row])


class AnalyzeCounters(dict):
    """Per-node actual row counts (``{id(node): rows}``) plus wall clock.

    Behaves as the plain counter dict the handlers have always threaded
    through; ``times`` additionally maps ``id(node)`` to the *inclusive*
    seconds spent producing that node's output (operator + its subtree),
    measured inside the iterator — consumer time between pulls is not
    attributed.
    """

    __slots__ = ("times",)

    def __init__(self):
        super().__init__()
        self.times: dict[int, float] = {}


def _run_node(node: nodes.PlanNode, params: tuple, snapshot,
              counters: dict | None):
    """Dispatch one plan node to its handler, returning its output iterator.

    With ``counters`` (an ANALYZE run), the iterator is wrapped to record
    the number of rows the operator actually produced, keyed by node id.
    """
    handler = _NODE_HANDLERS[type(node)]
    out = handler(node, params, snapshot, counters)
    if counters is not None:
        out = _counted(out, node, counters)
    return out


def _counted(rows, node, counters: dict):
    # batch operators yield Batch objects; ANALYZE reports the selected
    # *logical* rows they carry, so counts stay comparable across modes
    counters.setdefault(id(node), 0)
    times = getattr(counters, "times", None)
    if times is None:
        for row in rows:
            counters[id(node)] += row.count if isinstance(row, Batch) else 1
            yield row
        return
    times.setdefault(id(node), 0.0)
    iterator = iter(rows)
    node_id = id(node)
    while True:
        started = perf_counter()
        try:
            row = next(iterator)
        except StopIteration:
            times[node_id] += perf_counter() - started
            return
        times[node_id] += perf_counter() - started
        counters[node_id] += row.count if isinstance(row, Batch) else 1
        yield row


def _exec_scan(node: nodes.Scan, params, snapshot, counters):
    return scan_rows(node.table, node.plan, params, snapshot)


def _exec_filter(node: nodes.Filter, params, snapshot, counters):
    fn = node.fn
    return (
        row for row in _run_node(node.child, params, snapshot, counters)
        if truthy(fn(row, params))
    )


# -- aggregation -------------------------------------------------------------


def _new_group(spec: nodes.AggregateSpec):
    accumulators = [make_aggregate(fnode.name) for fnode, _ in spec.agg_specs]
    seen = [set() if fnode.distinct else None for fnode, _ in spec.agg_specs]
    return accumulators, seen


def _step_group(spec: nodes.AggregateSpec, accumulators, seen_list, row,
                params) -> None:
    for i, (fnode, arg_fn) in enumerate(spec.agg_specs):
        if fnode.is_star:
            accumulators[i].step_star()
            continue
        value = arg_fn(row, params)
        seen = seen_list[i]
        if seen is not None:
            marker = normalize_key(value) if value is not None else None
            if marker in seen:
                continue
            seen.add(marker)
        accumulators[i].step(value)


def _agg_groups_hash(node: nodes.HashAggregate, params, snapshot, counters):
    """Consume the whole input into hash groups; yield intermediate rows."""
    spec = node.spec
    groups: dict = {}
    group_values: dict = {}
    distinct_seen: dict = {}
    for row in _run_node(node.child, params, snapshot, counters):
        key_values = tuple(fn(row, params) for fn in spec.group_fns)
        key = tuple(normalize_key(v) if v is not None else None for v in key_values)
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators, seen = _new_group(spec)
            groups[key] = accumulators
            group_values[key] = key_values
            distinct_seen[key] = seen
        _step_group(spec, accumulators, distinct_seen[key], row, params)
    if not groups and not spec.group_exprs:
        # aggregate over an empty input still yields one row
        accumulators, _seen = _new_group(spec)
        groups[()] = accumulators
        group_values[()] = ()
    for key, accumulators in groups.items():
        yield list(group_values[key]) + [acc.final() for acc in accumulators]


def _agg_groups_stream(node: nodes.StreamAggregate, params, snapshot, counters):
    """Group-ordered input: finalize and emit each group on key change,
    holding exactly one group's state at a time."""
    spec = node.spec
    cur_key = None
    cur_values: tuple = ()
    accumulators = None
    seen = None
    for row in _run_node(node.child, params, snapshot, counters):
        key_values = tuple(fn(row, params) for fn in spec.group_fns)
        key = tuple(normalize_key(v) if v is not None else None for v in key_values)
        if accumulators is None or key != cur_key:
            if accumulators is not None:
                yield list(cur_values) + [acc.final() for acc in accumulators]
            cur_key = key
            cur_values = key_values
            accumulators, seen = _new_group(spec)
        _step_group(spec, accumulators, seen, row, params)
    if accumulators is not None:
        yield list(cur_values) + [acc.final() for acc in accumulators]
    elif not spec.group_exprs:  # defensive: planner only streams GROUP BY
        acc, _seen = _new_group(spec)
        yield [a.final() for a in acc]


def _agg_output(node, params, snapshot, counters, with_inter: bool = False):
    """Post-process intermediate group rows: HAVING, then projection."""
    spec = node.spec
    if isinstance(node, nodes.StreamAggregate):
        inter_fn = _agg_groups_stream
    elif isinstance(node, nodes.BatchAggregate):
        inter_fn = _batch_agg_groups
    else:
        inter_fn = _agg_groups_hash
    for inter in inter_fn(node, params, snapshot, counters):
        if spec.having_fn is not None and not truthy(
            spec.having_fn(inter, params)
        ):
            continue
        out_row = tuple(fn(inter, params) for fn in spec.item_fns)
        yield (inter, out_row) if with_inter else out_row


def _exec_aggregate(node, params, snapshot, counters):
    return _agg_output(node, params, snapshot, counters)


# -- batch (vectorized) operators --------------------------------------------
#
# These handlers exchange ``vector.Batch`` objects instead of rows.  The
# planner's ``_vectorize`` pass guarantees every batch node's child is
# itself a batch node, and every batch chain is capped by a row-mode
# consumer (``BatchToRows``, a batch aggregate, or the executor's
# projection machinery above them).


def _batch_scan(node: nodes.BatchScan, params, snapshot, counters):
    table = node.table
    if snapshot is not None:
        # MVCC fallback: version-chain resolution stays on the row scan;
        # transposing here keeps a cached batch plan correct inside a
        # snapshot transaction (just without the columnar decode win).
        rows = (
            [rowid, *values] for rowid, values in table.snapshot_scan(snapshot)
        )
        yield from batches_from_rows(rows)
        return
    yield from batches_from_chunks(table.scan_chunks(BATCH_SIZE))


def _batch_filter(node: nodes.BatchFilter, params, snapshot, counters):
    kernels = node.kernels
    for batch in _run_node(node.child, params, snapshot, counters):
        filtered = filter_batch(batch, kernels, params)
        if filtered is not None:
            yield filtered


def _batch_agg_groups(node: nodes.BatchAggregate, params, snapshot, counters):
    """Vectorized twin of ``_agg_groups_hash``: intermediate group rows."""
    yield from aggregate_batches(
        _run_node(node.child, params, snapshot, counters),
        node.group_positions,
        node.agg_descs,
    )


def _batch_to_rows(node: nodes.BatchToRows, params, snapshot, counters):
    for batch in _run_node(node.child, params, snapshot, counters):
        yield from batch.rows()


# -- ordering / projection / distinct / limit --------------------------------


class _Reversed:
    """Wrapper inverting comparison order for DESC sort keys."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other: "_Reversed") -> bool:
        return other.key < self.key

    def __eq__(self, other) -> bool:
        return isinstance(other, _Reversed) and other.key == self.key


def _direction_key(value, ascending: bool):
    key = sort_key(value)
    return key if ascending else _Reversed(key)


def _order_key(specs, base_row, out_row, params: tuple) -> tuple:
    keys = []
    for kind, spec, ascending in specs:
        if kind == "position":
            if not 0 <= spec < len(out_row):
                raise PlanningError(f"ORDER BY position {spec + 1} out of range")
            value = out_row[spec]
        else:
            value = spec(base_row, params)
        keys.append(_direction_key(value, ascending))
    return tuple(keys)


def _keyed_rows(project: nodes.Project, specs, params, snapshot, counters):
    """Project the input stream, yielding ``(sort_key, output_row)``.

    Sort/TopK consume the projection here rather than through
    :func:`_run_node`, so ANALYZE counts are attributed explicitly."""
    item_fns = project.item_fns
    if counters is not None:
        counters.setdefault(id(project), 0)
    for row in _run_node(project.child, params, snapshot, counters):
        out_row = tuple(fn(row, params) for fn in item_fns)
        if counters is not None:
            counters[id(project)] += 1
        yield _order_key(specs, row, out_row, params), out_row


def _exec_project(node: nodes.Project, params, snapshot, counters):
    item_fns = node.item_fns
    return (
        tuple(fn(row, params) for fn in item_fns)
        for row in _run_node(node.child, params, snapshot, counters)
    )


def _exec_sort(node: nodes.Sort, params, snapshot, counters):
    def run():
        if node.mode == "groups":
            # ordering an aggregate: positional keys refer to the projected
            # output row, everything else to the intermediate group row
            keyed = []
            n_groups = 0
            for inter, out_row in _agg_output(node.child, params, snapshot,
                                              counters, with_inter=True):
                n_groups += 1
                keys = []
                for kind, spec, ascending in node.specs:
                    if kind == "position":
                        if not 0 <= spec < len(out_row):
                            raise PlanningError(
                                f"ORDER BY position {spec + 1} out of range"
                            )
                        value = out_row[spec]
                    else:
                        value = spec(inter, params)
                    keys.append(_direction_key(value, ascending))
                keyed.append((tuple(keys), out_row))
            if counters is not None:
                counters[id(node.child)] = n_groups
            keyed.sort(key=lambda pair: pair[0])
            for _keys, out_row in keyed:
                yield out_row
            return
        pairs = sorted(
            _keyed_rows(node.child, node.specs, params, snapshot, counters),
            key=lambda pair: pair[0],
        )
        for _keys, out_row in pairs:
            yield out_row
    return run()


def _exec_topk(node: nodes.TopK, params, snapshot, counters):
    def run():
        limit = _eval_value(node.limit_expr, params)
        offset = 0
        if node.offset_expr is not None:
            offset = _eval_value(node.offset_expr, params) or 0
        keyed = _keyed_rows(node.child, node.specs, params, snapshot, counters)
        if limit is None:  # LIMIT NULL: degrade to a full sort
            for _keys, out_row in sorted(keyed, key=lambda pair: pair[0]):
                yield out_row
            return
        n = max(int(offset), 0) + max(int(limit), 0)
        top = heapq.nsmallest(n, keyed, key=lambda pair: pair[0])
        for _keys, out_row in top:
            yield out_row
    return run()


def _exec_distinct(node: nodes.Distinct, params, snapshot, counters):
    return _stream_distinct(_run_node(node.child, params, snapshot, counters))


def _stream_distinct(rows):
    """Yield each distinct row once, preserving first-occurrence order.

    Rows containing unhashable values fall back to a linear-scan list, so
    duplicates are still suppressed (hashable markers stay O(1))."""
    seen: set = set()
    unhashable: list = []
    for row in rows:
        marker = tuple(
            normalize_key(v) if v is not None else None for v in row
        )
        try:
            if marker in seen:
                continue
            seen.add(marker)
        except TypeError:
            if marker in unhashable:
                continue
            unhashable.append(marker)
        yield row


def _exec_limit(node: nodes.Limit, params, snapshot, counters):
    limit = (
        _eval_value(node.limit_expr, params)
        if node.limit_expr is not None else None
    )
    offset = 0
    if node.offset_expr is not None:
        offset = _eval_value(node.offset_expr, params) or 0
    rows = _run_node(node.child, params, snapshot, counters)
    return _limit_stream(rows, limit, max(int(offset), 0))


def _limit_stream(rows, limit, offset: int):
    if limit is None:
        return islice(rows, offset, None) if offset else rows
    stop = offset + max(int(limit), 0)
    return islice(rows, offset, stop)


_NODE_HANDLERS = {
    nodes.Scan: _exec_scan,
    nodes.Filter: _exec_filter,
    nodes.HashAggregate: _exec_aggregate,
    nodes.StreamAggregate: _exec_aggregate,
    nodes.Project: _exec_project,
    nodes.Sort: _exec_sort,
    nodes.TopK: _exec_topk,
    nodes.Distinct: _exec_distinct,
    nodes.Limit: _exec_limit,
    nodes.BatchScan: _batch_scan,
    nodes.BatchFilter: _batch_filter,
    nodes.BatchAggregate: _exec_aggregate,
    nodes.BatchToRows: _batch_to_rows,
}


# ---------------------------------------------------------------------------
# DML: compiled plans, cached and rebound per execution
# ---------------------------------------------------------------------------


class CompiledInsert:
    """An INSERT compiled once: column positions plus per-row value fns."""

    __slots__ = ("table_name", "n_columns", "positions", "row_fns")

    def __init__(self, table_name, n_columns, positions, row_fns):
        self.table_name = table_name
        self.n_columns = n_columns
        self.positions = positions
        self.row_fns = row_fns


class CompiledUpdate:
    """An UPDATE compiled once: scan plan, residual, assignment closures."""

    __slots__ = ("table_name", "plan", "residual_fn", "assignment_fns")

    def __init__(self, table_name, plan, residual_fn, assignment_fns):
        self.table_name = table_name
        self.plan = plan
        self.residual_fn = residual_fn
        self.assignment_fns = assignment_fns


class CompiledDelete:
    """A DELETE compiled once: scan plan plus residual closure."""

    __slots__ = ("table_name", "plan", "residual_fn")

    def __init__(self, table_name, plan, residual_fn):
        self.table_name = table_name
        self.plan = plan
        self.residual_fn = residual_fn


def compile_dml(db, stmt) -> CompiledInsert | CompiledUpdate | CompiledDelete:
    """Compile a DML statement against the current catalog.

    The compiled object holds only names (table, index) and closures —
    never storage objects — so executing it always resolves live state;
    the schema epoch guards against layout drift.
    """
    if isinstance(stmt, ast.InsertStmt):
        table = db.table(stmt.table)
        schema = table.schema
        if stmt.columns:
            positions = [schema.position(c) for c in stmt.columns]
        else:
            positions = list(range(len(schema.columns)))
        for value_row in stmt.rows:
            if len(value_row) != len(positions):
                raise ExecutionError(
                    f"INSERT has {len(value_row)} values for "
                    f"{len(positions)} columns"
                )
        row_fns = [
            [compile_value(expr) for expr in value_row] for value_row in stmt.rows
        ]
        return CompiledInsert(
            stmt.table, len(schema.columns), positions, row_fns
        )
    table = db.table(stmt.table)
    resolver = Resolver.for_table(stmt.table, table.schema.column_names)
    plan = plan_scan(table, stmt.where)
    residual_fn = (
        compile_expr(plan.residual, resolver) if plan.residual is not None else None
    )
    if isinstance(stmt, ast.UpdateStmt):
        assignment_fns = [
            (table.schema.position(column), compile_expr(expr, resolver))
            for column, expr in stmt.assignments
        ]
        return CompiledUpdate(stmt.table, plan, residual_fn, assignment_fns)
    return CompiledDelete(stmt.table, plan, residual_fn)


def run_dml(db, compiled, params: tuple, session=None) -> ResultSet:
    """Execute a compiled DML plan under one params binding.

    Outside any transaction (and with the database quiescent) this is
    the legacy in-place path.  Otherwise the statement runs under the
    session's transaction — implicit one-statement transactions are
    begun and committed here — holding the global write lock, reading
    through the transaction's snapshot, and unwinding to a savepoint on
    failure so a half-applied statement never leaks.
    """
    session = session if session is not None else db.default_session
    manager = db.txn
    # the whole statement — including the fast-path-vs-transaction decision
    # — runs under the write lock, so a reader registering a snapshot (or
    # another thread opening a connection) cannot race this statement into
    # unversioned in-place mutation after observing a quiescent database
    with manager.lock:
        txn, implicit = session.write_context()
        if txn is None:
            result = _apply_dml(db, compiled, params, None)
            # fast-path mutations log WAL events as they go; the statement
            # boundary is their durability point (transactions get theirs
            # in commit_transaction)
            db._wal_barrier()
            return result
        mark = txn.savepoint()
        try:
            result = _apply_dml(db, compiled, params, txn)
        except BaseException:
            manager.undo_to(txn, mark, db)
            if implicit:
                manager.rollback(txn, db)
            raise
        if implicit:
            db.commit_transaction(txn)
        return result


@holds_write_lock
def _apply_dml(db, compiled, params: tuple, txn) -> ResultSet:
    table = db.table(compiled.table_name)
    snapshot = txn.snapshot if txn is not None else None
    if isinstance(compiled, CompiledInsert):
        positions = compiled.positions
        last = None
        for fns in compiled.row_fns:
            full = [None] * compiled.n_columns
            for position, fn in zip(positions, fns):
                full[position] = fn(_EMPTY_ROW, params)
            last = table.insert(full, txn=txn)
        return ResultSet([], [], rowcount=len(compiled.row_fns), lastrowid=last)
    residual_fn = compiled.residual_fn
    if isinstance(compiled, CompiledUpdate):
        assignment_fns = compiled.assignment_fns
        pending: list[tuple[int, dict[int, object]]] = []
        for row in scan_rows(table, compiled.plan, params, snapshot):
            if residual_fn is not None and not truthy(residual_fn(row, params)):
                continue
            changes = {
                position: fn(row, params) for position, fn in assignment_fns
            }
            pending.append((row[0], changes))
        for rowid, changes in pending:
            table.update(rowid, changes, txn=txn)
        return ResultSet([], [], rowcount=len(pending))
    doomed: list[int] = []
    for row in scan_rows(table, compiled.plan, params, snapshot):
        if residual_fn is not None and not truthy(residual_fn(row, params)):
            continue
        doomed.append(row[0])
    for rowid in doomed:
        table.delete(rowid, txn=txn)
    return ResultSet([], [], rowcount=len(doomed))


# ---------------------------------------------------------------------------
# EXPLAIN
# ---------------------------------------------------------------------------


def explain(db, stmt, plan, hit: bool, params: tuple = (),
            analyze: bool = False, session=None) -> ResultSet:
    """Render ``plan`` — the compiled plan of a SELECT, UPDATE or DELETE
    ``stmt`` — one tree line per row.

    The first line reports whether the plan was replayed from the
    statement's cached slot (``cache: hit`` / ``cache: miss``).  A
    table-less SELECT has no plan (``plan`` is None) and renders as
    ``ConstantScan``.  ``analyze=True`` (``EXPLAIN ANALYZE``, SELECT
    only) runs the query — under the session's snapshot — and annotates
    every operator with the rows it actually produced and the inclusive
    wall-clock time spent producing them.
    """
    lines = [f"cache: {'hit' if hit else 'miss'}"]
    if plan is None:
        lines.append("ConstantScan")
    elif isinstance(stmt, ast.SelectStmt):
        counters = None
        if analyze:
            counters = AnalyzeCounters()
            snapshot, release = _read_context(db, session, stream=False)
            try:
                for _row in _run_node(plan.root, tuple(params), snapshot,
                                      counters):
                    pass
            finally:
                if release is not None:
                    release()
        lines.extend(nodes.render_tree(
            plan.root, counters,
            counters.times if counters is not None else None,
        ))
    else:
        verb = "Update" if isinstance(stmt, ast.UpdateStmt) else "Delete"
        lines.append(f"{verb} <- {plan.plan.describe()}")
    return ResultSet(["plan"], [(line,) for line in lines])
