"""Columnar batch execution: the vectorized operator substrate.

The row pipeline pays full interpreter dispatch per tuple — a dozen
function calls and a list allocation for every row that flows through a
scan/filter/aggregate chain.  Batch mode amortizes that cost across
~:data:`BATCH_SIZE` values per call: operators exchange :class:`Batch`
objects (positional column vectors plus a selection index vector) and run
tight per-column loops instead of per-row closures.

Semantics contract: every loop in this module replicates the row-mode
value semantics (``expressions.sql_equal``/``sql_compare``, the
``functions`` aggregate accumulators, ``hash_index.normalize_key`` group
keys) **bit for bit** — the parity suite in
``tests/test_minidb_vectorized.py`` holds both pipelines to identical
output.  Batches preserve row order end to end (scan = insertion order,
join = probe order, aggregation = first-seen group order), so ordered
results match too.

The planner decides per plan whether to run batch or row operators (see
``planner._vectorize``); the executor's ``BatchToRows`` adapter bridges a
batch subtree back into any row-mode consumer.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

from repro.minidb.functions import _sort_key
from repro.minidb.hash_index import normalize_key

BATCH_SIZE = 1024
"""Rows per batch: large enough to amortize dispatch, small enough to
keep a join's matched-pair working set cache-resident."""


class Batch:
    """A slice of rows in columnar layout.

    ``cols`` holds one sequence (list or tuple) per *row position* — the
    same positional layout the row pipeline uses (``cols[0]`` is the
    rowid column for base-table scans; joins concatenate layouts in
    execution order).  ``sel`` is a selection vector: a list of indices
    into the columns that are still live, or ``None`` meaning "all".
    Filters narrow ``sel`` instead of copying column data.
    """

    __slots__ = ("cols", "sel")

    def __init__(self, cols, sel=None):
        self.cols = cols
        self.sel = sel

    @property
    def count(self) -> int:
        """Number of *selected* logical rows in this batch."""
        if self.sel is not None:
            return len(self.sel)
        return len(self.cols[0]) if self.cols else 0

    def indices(self):
        """Live indices, cheap form: the sel list or a full range."""
        if self.sel is not None:
            return self.sel
        return range(len(self.cols[0]) if self.cols else 0)

    def rows(self) -> Iterator[list]:
        """Re-materialize selected rows in the row pipeline's layout."""
        cols = self.cols
        for i in self.indices():
            yield [c[i] for c in cols]


def batches_from_chunks(chunks) -> Iterator[Batch]:
    """Batchify ``Table.scan_chunks`` output: (rowids, value_rows) pairs.

    ``zip(*value_rows)`` transposes row-major storage pages into column
    tuples at C speed; zero-column tables degrade to a lone rowid column.
    """
    for rowids, value_rows in chunks:
        if not rowids:
            continue
        yield Batch([rowids, *zip(*value_rows)])


def batches_from_rows(rows: Iterable, size: int = BATCH_SIZE) -> Iterator[Batch]:
    """Batchify an arbitrary row iterator (the row->batch adapter).

    Used for MVCC snapshot scans, which stay on the (version-chain aware)
    row path in this first cut and are transposed here so a cached batch
    plan still answers correctly inside a snapshot transaction.
    """
    it = iter(rows)
    while True:
        block = list(islice(it, size))
        if not block:
            return
        yield Batch(list(zip(*block)))


def filter_batch(batch: Batch, kernels, params) -> Batch | None:
    """Run conjunct ``kernels`` over one batch; None when nothing survives.

    Each kernel maps (cols, indices, params) -> surviving index list, so
    a conjunction is a chain of narrowing selection vectors — identical
    to Kleene-AND row filtering because a row passes ``WHERE a AND b``
    exactly when every conjunct is truthy for it.
    """
    cols = batch.cols
    indices = batch.indices()
    for kernel in kernels:
        indices = kernel(cols, indices, params)
        if not indices:
            return None
    return Batch(cols, indices if isinstance(indices, list) else list(indices))


# ---------------------------------------------------------------------------
# vectorized aggregation
# ---------------------------------------------------------------------------

# State-slot widths per supported aggregate.  SUM carries (total, seen,
# all_int) to reproduce SumAgg's int-preserving result exactly; AVG
# carries (total, n); MIN/MAX carry the best value (None == unseen,
# which is unambiguous because NULL inputs are skipped).
_AGG_WIDTH = {"COUNT": 1, "SUM": 3, "AVG": 2, "MIN": 1, "MAX": 1}

BATCH_AGGREGATES = frozenset(_AGG_WIDTH)
"""Aggregate functions with a vectorized tight-loop implementation."""


def state_layout(agg_descs) -> tuple[list, list]:
    """``(offsets, template)`` — the state-entry layout for ``agg_descs``.

    Slot 0 of every entry is reserved for the first-seen raw group
    values; each aggregate then occupies ``_AGG_WIDTH[name]`` slots
    starting at its offset.  The template is the fresh (zero-input)
    state, which is also what SQL's one-row-over-empty-input global
    aggregate finalizes to.
    """
    offsets = []
    template: list = [None]  # slot 0 reserved for the group-values list
    for name, _pos in agg_descs:
        offsets.append(len(template))
        if name == "SUM":
            template.extend((0.0, False, True))
        elif name == "AVG":
            template.extend((0.0, 0))
        elif name == "COUNT":
            template.append(0)
        else:  # MIN / MAX
            template.append(None)
    return offsets, template


def accumulate_batches(batches, group_positions, agg_descs) -> dict:
    """Fold a batch stream into per-group state entries (not finalized).

    Returns ``{key: entry}`` in first-seen group order; a global
    aggregate folds into the single key ``()``.  This is the
    accumulation half of :func:`aggregate_batches`, which finalizes the
    entries into rows.

    Accumulation is a grouped columnar fold: each batch's selection is
    partitioned into per-group index lists once, then every aggregate
    folds one group's extracted values at a time — the value sequence
    each state sees is identical to the row-at-a-time order (a state is
    only ever touched by its own group's rows, in stream order), but
    the per-group probe lets ``sum``/``min``/``max`` collapse to one
    builtin call instead of a per-row state update.
    """
    offsets, template = state_layout(agg_descs)
    if not group_positions:
        # global aggregate: one shared state, so group partitioning
        # vanishes and whole-column fast paths apply
        return {(): _aggregate_ungrouped(batches, agg_descs, offsets,
                                         template)}
    groups: dict = {}
    for batch in batches:
        cols = batch.cols
        indices = batch.indices()
        buckets = _group_indices(cols, indices, group_positions, groups,
                                 template)
        extracted: dict = {}
        for (name, pos), offset in zip(agg_descs, offsets):
            if pos is None:  # COUNT(*) counts rows
                for key, idxs in buckets.items():
                    groups[key][offset] += len(idxs)
                continue
            per_group = extracted.get(pos)
            if per_group is None:
                col = cols[pos]
                per_group = {
                    key: [v for i in idxs if (v := col[i]) is not None]
                    for key, idxs in buckets.items()
                }
                extracted[pos] = per_group
            for key, vals in per_group.items():
                if vals:
                    _fold_values(name, vals, groups[key], offset)
    return groups


def aggregate_batches(batches, group_positions, agg_descs) -> Iterator[list]:
    """Hash-aggregate a batch stream; yields ``[*group_values, *finals]``.

    ``group_positions`` are row positions of the GROUP BY columns;
    ``agg_descs`` is a list of ``(name, position_or_None)`` pairs where
    ``None`` means ``COUNT(*)``.  Output rows appear in first-seen group
    order and carry the first-seen raw group values — the same contract
    as the row executor's ``_agg_groups_hash``, so HAVING/projection/sort
    post-processing is shared unchanged.
    """
    offsets, _template = state_layout(agg_descs)
    groups = accumulate_batches(batches, group_positions, agg_descs)
    for entry in groups.values():
        out = list(entry[0])
        for (name, _pos), offset in zip(agg_descs, offsets):
            out.append(_final(name, entry, offset))
        yield out


#: per-batch type probes for the ungrouped fast paths.  ``bool`` is a
#: subclass of int but ``type(v)`` is exact, so a probe of {int} or
#: {int, float} certifies the batch holds no bools (which SUM/AVG must
#: skip) and no text (which needs ``_as_number`` parsing / rank rules).
_INT_ONLY = frozenset((int,))
_NUM_KINDS = frozenset((int, float))
_STR_ONLY = frozenset((str,))
#: largest int magnitude float() maps exactly; below it, Python's exact
#: int/float comparison agrees with ``_sort_key``'s float-converted one
_EXACT_FLOAT_INT = 2 ** 53


def _aggregate_ungrouped(batches, agg_descs, offsets, template) -> list:
    """Fold a batch stream into one global-aggregate state entry.

    Non-NULL values are extracted once per distinct argument column and
    shared across the aggregates that read it.  A per-batch type probe
    (``set(map(type, ...))`` — one C pass) certifies when the exact
    accumulator loop can collapse to a builtin: ``sum(vals, total)``
    performs the *same sequence* of float additions the row accumulator
    does, and ``min``/``max`` perform the same strictly-less/greater
    first-seen-wins scan ``_sort_key`` ordering implies for same-rank
    values.  Mixed-kind batches fall back to the exact per-value loop.
    """
    entry = list(template)
    entry[0] = []
    for batch in batches:
        cols = batch.cols
        indices = batch.indices()
        n = len(indices)
        if not n:
            continue
        extracted: dict = {}
        for (name, pos), o in zip(agg_descs, offsets):
            if pos is None:  # COUNT(*)
                entry[o] += n
                continue
            vals = extracted.get(pos)
            if vals is None:
                col = cols[pos]
                vals = [v for i in indices if (v := col[i]) is not None]
                extracted[pos] = vals
            if vals:
                _fold_values(name, vals, entry, o)
    return entry


def _fold_values(name, vals, entry, o) -> None:
    """Fold one already-NULL-stripped value run into a state entry.

    A type probe (``set(map(type, ...))`` — one C pass) certifies when
    the exact accumulator loop can collapse to a builtin: ``sum(vals,
    total)`` performs the *same sequence* of float additions the row
    accumulator does, and ``min``/``max`` perform the same strictly-
    less/greater first-seen-wins scan ``_sort_key`` ordering implies for
    same-rank values.  Mixed-kind runs fall back to the exact per-value
    loop.  The probe is exact (``bool`` is not ``int`` under ``type``),
    so bools and numeric text always take the fallback, which skips or
    parses them exactly as the row accumulators do.
    """
    if name == "COUNT":
        entry[o] += len(vals)
        return
    kinds = set(map(type, vals))
    if name == "SUM":
        if kinds <= _NUM_KINDS:
            entry[o] = sum(vals, entry[o])
            entry[o + 1] = True
            if not kinds <= _INT_ONLY:
                entry[o + 2] = False
        else:
            _sum_values(vals, entry, o)
    elif name == "AVG":
        if kinds <= _NUM_KINDS:
            entry[o] = sum(vals, entry[o])
            entry[o + 1] += len(vals)
        else:
            _avg_values(vals, entry, o)
    else:  # MIN / MAX
        # direct comparison agrees with the float-converted ``_sort_key``
        # one for same-kind floats or text always, and for ints only
        # inside float's exact range (beyond it, float-equal ints tie
        # and first-seen diverges from the exact integer order
        # ``min``/``max`` would use)
        champion = None
        if kinds <= _STR_ONLY:
            champion = min(vals) if name == "MIN" else max(vals)
        elif kinds <= _NUM_KINDS:
            low, high = min(vals), max(vals)
            if -_EXACT_FLOAT_INT <= low and high <= _EXACT_FLOAT_INT:
                champion = low if name == "MIN" else high
        if champion is not None:
            best = entry[o]
            if best is None:
                entry[o] = champion
            elif name == "MIN":
                if _sort_key(champion) < _sort_key(best):
                    entry[o] = champion
            elif _sort_key(champion) > _sort_key(best):
                entry[o] = champion
        elif name == "MIN":
            for v in vals:
                best = entry[o]
                if best is None or _sort_key(v) < _sort_key(best):
                    entry[o] = v
        else:
            for v in vals:
                best = entry[o]
                if best is None or _sort_key(v) > _sort_key(best):
                    entry[o] = v


def _sum_values(vals, entry, o):
    """Exact SumAgg steps over already-NULL-stripped values."""
    total, seen, all_int = entry[o], entry[o + 1], entry[o + 2]
    for v in vals:
        if isinstance(v, bool):
            continue
        if isinstance(v, (int, float)):
            total += v
            seen = True
            if not isinstance(v, int):
                all_int = False
        else:
            try:
                number = float(v)
            except (TypeError, ValueError):
                continue
            total += number
            seen = True
            all_int = False
    entry[o], entry[o + 1], entry[o + 2] = total, seen, all_int


def _avg_values(vals, entry, o):
    """Exact AvgAgg steps over already-NULL-stripped values."""
    total, n = entry[o], entry[o + 1]
    for v in vals:
        if isinstance(v, bool):
            continue
        if isinstance(v, (int, float)):
            total += v
            n += 1
        else:
            try:
                number = float(v)
            except (TypeError, ValueError):
                continue
            total += number
            n += 1
    entry[o], entry[o + 1] = total, n


def _group_indices(cols, indices, group_positions, groups, template):
    """Partition a batch's selection into per-group index runs.

    Returns ``{key: [index, ...]}`` in first-seen order within the
    batch, creating missing entries in ``groups`` on demand with the
    first-seen raw group values in slot 0.  Index runs preserve stream
    order, so folding a run replays exactly the steps the row-at-a-time
    loop would have applied to that group's state.
    """
    buckets: dict = {}
    get = buckets.get
    if len(group_positions) == 1:
        col = cols[group_positions[0]]
        for i in indices:
            v = col[i]
            key = (normalize_key(v) if v is not None else None,)
            idxs = get(key)
            if idxs is not None:
                idxs.append(i)
                continue
            buckets[key] = [i]
            if key not in groups:
                entry = list(template)
                entry[0] = [v]
                groups[key] = entry
        return buckets
    gcols = [cols[p] for p in group_positions]
    for i in indices:
        values = [c[i] for c in gcols]
        key = tuple(normalize_key(v) if v is not None else None for v in values)
        idxs = get(key)
        if idxs is not None:
            idxs.append(i)
            continue
        buckets[key] = [i]
        if key not in groups:
            entry = list(template)
            entry[0] = values
            groups[key] = entry
    return buckets


def _final(name, entry, o):
    """Finalize one aggregate's state slots into its result value."""
    if name == "COUNT":
        return entry[o]
    if name == "SUM":
        if not entry[o + 1]:
            return None
        return int(entry[o]) if entry[o + 2] else entry[o]
    if name == "AVG":
        n = entry[o + 1]
        return entry[o] / n if n else None
    return entry[o]  # MIN / MAX: best value, None when no input
