"""Span tracing from the benchmark's side of each layer boundary.

Nothing under ``src/`` is edited: spans are recorded by wrappers this
module installs *on instances* (a delegating :class:`TracedBackend`, a
``db.prepare`` that hands out :class:`TracedStatement` proxies, and
``Tracer.wrap`` on bound methods).  A span is ``[name, start, end, parent,
op_id]``; a span with no parent is one user-visible operation.  Spans stay
in memory until :func:`write_trace`.

A layer is the dotted prefix of a span name (``core.engine.detect_groups``
belongs to ``core.engine``); its self time is the span's duration minus
the part its child spans cover, so the self times below one operation add
up to that operation's wall time.
"""

from __future__ import annotations

import functools
import json
import re
import time
from collections import defaultdict
from typing import Optional, Sequence

from e2e_common import OUT_DIR, median, ms

from repro.backends.base import Backend
from repro.minidb import connect

NAME, START, END, PARENT, OP_ID = range(5)

BACKEND_WRITES = ("delete_rows", "set_cells", "apply_delta", "flush")
BACKEND_METHODS = BACKEND_WRITES + (
    "column_names", "row_count", "categorical_columns", "numerical_columns",
    "all_row_ids", "row", "values", "distinct_values", "group_row_ids",
    "group_sizes", "numeric_stats", "missing_row_ids", "mismatch_row_ids",
    "out_of_range_row_ids", "to_frame", "ensure_index", "register_chart_columns",
)


class Tracer:
    """In-memory span recorder for one thread, on the clock it is given."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []
        self._ops = 0
        self._last_root = -1

    def begin(self, name: str) -> int:
        if self._open:
            parent = self._open[-1]
        else:
            parent = -1
            self._ops += 1
        index = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, parent, self._ops])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self._open.pop()
        if not self._open:
            self._last_root = index

    def rename_last_root(self, name: str) -> None:
        self.spans[self._last_root][NAME] = name

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span."""
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def wrap(self, obj, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with an instance attribute that records a span."""
        setattr(obj, attr, functools.partial(self.call, name, getattr(obj, attr)))

    # -- aggregation ---------------------------------------------------------

    def durations(self, name: str, not_under: str = "") -> list[float]:
        """Inclusive seconds of every span called ``name`` (optionally only
        those whose parent is not called ``not_under``)."""
        spans = self.spans
        return [
            s[END] - s[START] for s in spans
            if s[NAME] == name
            and (not not_under or s[PARENT] < 0
                 or spans[s[PARENT]][NAME] != not_under)
        ]

    def self_seconds(self, name: str) -> float:
        """Seconds spent in spans called ``name`` outside their child spans."""
        spans = self.spans
        total = sum(self.durations(name))
        return total - sum(
            s[END] - s[START] for s in spans
            if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == name)


def layer_of(name: str) -> str:
    """``core.engine.detect_groups`` -> ``core.engine``; ``op.x`` -> benchmark."""
    head, _, _leaf = name.rpartition(".")
    return "benchmark" if head == "op" else head


def self_times(spans: Sequence[Sequence]) -> dict:
    """``{op kind: {"n": ops, "wall": seconds, "layers": {layer: self s}}}``."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    roots: dict[int, str] = {}
    table: dict[str, dict] = {}
    for index, span in enumerate(spans):
        if span[PARENT] < 0:
            kind = span[NAME].partition(".")[2]
            roots[span[OP_ID]] = kind
            entry = table.setdefault(
                kind, {"n": 0, "wall": 0.0, "layers": defaultdict(float)})
            entry["n"] += 1
            entry["wall"] += span[END] - span[START]
        kind = roots[span[OP_ID]]
        own = span[END] - span[START] - child_time[index]
        table[kind]["layers"][layer_of(span[NAME])] += own
    return table


def format_self_times(table: dict) -> str:
    """The per-layer self-time table, one block per operation kind."""
    lines = []
    for kind, entry in sorted(table.items(), key=lambda kv: -kv[1]["wall"]):
        wall = entry["wall"]
        lines.append(
            f"  {kind}: n={entry['n']} wall={wall:.4f} s "
            f"mean={wall / entry['n'] * 1000:.3f} ms"
        )
        for layer, seconds in sorted(entry["layers"].items(),
                                     key=lambda kv: -kv[1]):
            share = seconds / wall * 100 if wall else 0.0
            lines.append(f"    {layer:<22} {seconds:10.4f} s  {share:5.1f}%")
        covered = sum(entry["layers"].values())
        lines.append(f"    {'(sum of rows)':<22} {covered:10.4f} s  "
                     f"{covered / wall * 100 if wall else 0.0:5.1f}%")
    return "\n".join(lines)


def write_trace(workload: str, spans: Sequence[Sequence]) -> str:
    """Write the spans as ``out/trace-<workload>.json``; returns the path."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{workload}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({
            "workload": workload,
            "fields": ["name", "start", "end", "parent", "op_id"],
            "spans": spans,
        }, handle)
    return str(path)


class TracedStatement:
    """Delegating proxy of a minidb ``PreparedStatement`` that records spans."""

    def __init__(self, inner, tracer: Tracer, seen: dict):
        self._inner = inner
        self._tracer = tracer
        self._seen = seen          # sql text -> last parameters executed

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def execute(self, params=(), session=None):
        self._seen[self._inner.sql] = params
        return self._tracer.call(
            "minidb.execute", self._inner.execute, params, session=session)

    def executemany(self, param_rows, session=None):
        self._seen.setdefault(self._inner.sql, None)
        return self._tracer.call(
            "minidb.executemany", self._inner.executemany, param_rows,
            session=session)

    def stream(self, params=(), session=None):
        self._seen[self._inner.sql] = params
        return self._tracer.call(
            "minidb.stream", self._inner.stream, params, session=session)


def trace_database(db, tracer: Tracer) -> dict:
    """Route every statement of ``db`` through :class:`TracedStatement`.

    ``Database.execute`` / ``executemany`` / ``stream`` all go through
    ``self.prepare``, so shadowing that one bound method is enough.
    Returns the ``sql -> last params`` record of what the workload issued.
    """
    seen: dict = {}
    prepare = db.prepare
    proxies: dict[int, TracedStatement] = {}

    def traced_prepare(sql: str):
        inner = prepare(sql)
        proxy = proxies.get(id(inner))
        if proxy is None:
            proxy = proxies[id(inner)] = TracedStatement(inner, tracer, seen)
        return proxy

    db.prepare = traced_prepare
    return seen


def untrace_database(db) -> None:
    """Undo :func:`trace_database` (a no-op on a database never traced)."""
    db.__dict__.pop("prepare", None)


def _delegate(method: str):
    span_name = "backends." + method

    def call(self, *args, **kwargs):
        return self._tracer.call(
            span_name, getattr(self.inner, method), *args, **kwargs)

    call.__name__ = method
    return call


class TracedBackend(Backend):
    """Delegating proxy of a storage backend; one span per protocol call.

    Attributes outside the :class:`Backend` protocol (``db``, ``table_name``,
    ``stats_cache`` ...) fall through to the wrapped backend.
    """

    def __init__(self, inner: Backend, tracer: Tracer):
        self.inner = inner
        self.kind = inner.kind
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self.inner, name)

    for _method in BACKEND_METHODS:
        vars()[_method] = _delegate(_method)
    del _method


def storage_metrics(spans: Sequence[Sequence], rounds: int, db=None,
                    seen: Optional[dict] = None) -> dict:
    """The ``backends.*`` and ``minidb.*`` numbers of a traced stretch, per
    round.  ``db``/``seen`` (from :func:`trace_database`) add the replays:
    cold prepares and ``EXPLAIN ANALYZE`` of what the workload issued."""
    calls = [s for s in spans
             if s[NAME].startswith("backends.") and s[NAME] != "backends.upload"]
    writes = [s for s in calls if s[NAME].rpartition(".")[2] in BACKEND_WRITES]
    statements = [s[END] - s[START] for s in spans if s[NAME].startswith("minidb.")]
    metrics = {
        "backends.calls": len(calls) / rounds,
        "backends.read_calls": (len(calls) - len(writes)) / rounds,
        "backends.write_calls": len(writes) / rounds,
        "backends.busy_s": sum(s[END] - s[START] for s in calls) / rounds,
        "backends.write_busy_s": sum(s[END] - s[START] for s in writes) / rounds,
        "minidb.statements": len(statements) / rounds,
        "minidb.busy_s": sum(statements) / rounds,
    }
    if db is not None and statements:
        untrace_database(db)     # the replays below are not workload
        info = db.plan_cache.info()
        lookups = info["hits"] + info["misses"]
        metrics.update({
            "minidb.prepare_ms_p50": cold_prepare_ms(list(seen)),
            "minidb.execute_ms_p50": ms(median(statements)),
            "minidb.plan_cache.hit_rate": info["hits"] / lookups if lookups else 0.0,
            "minidb.rows_examined_per_row": rows_examined_per_row(db, seen),
        })
    return metrics


def rows_examined_per_row(db, seen: dict) -> float:
    """``EXPLAIN ANALYZE`` every SELECT shape the workload issued (with the
    parameters of its last execution): rows produced by scan operators
    divided by rows the statements returned."""
    examined = returned = 0
    for sql, params in seen.items():
        if params is None or not sql.lstrip().upper().startswith("SELECT"):
            continue
        counted = [
            (line.strip(), int(match.group(1)))
            for line in db.explain(sql, params, analyze=True).splitlines()
            if (match := re.search(r"\brows=(\d+)", line))
        ]
        if not counted:
            continue
        returned += counted[0][1]
        examined += sum(rows for text, rows in counted if "Scan" in text)
    return examined / returned if returned else 0.0


def cold_prepare_ms(statements: Sequence[str]) -> float:
    """Median cold ``db.prepare`` (parse) time over distinct SQL texts, replayed
    against a fresh statement cache."""
    fresh = connect()
    samples = []
    for sql in statements:
        start = time.perf_counter()
        fresh.prepare(sql)
        samples.append(time.perf_counter() - start)
    fresh.close()
    return ms(median(samples))
