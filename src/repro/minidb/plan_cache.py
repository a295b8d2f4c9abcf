"""minidb's one plan cache: prepared statements keyed by SQL text.

Plans compile every embedded expression into ``fn(row, params)``
closures, so one compiled tree answers every binding of the same SQL
text.  :class:`PlanCache` keeps parsed statements in an LRU; each
:class:`~repro.minidb.prepared.PreparedStatement` keeps its plan in a
private slot stamped with the :func:`validation_key` it was planned
under, and re-plans when DDL, ``analyze()``, the ``vectorize`` knob or
a table's row-count bucket moves that key.  ``EXPLAIN SELECT x`` and
``SELECT x`` are two texts, so two entries with two slots (see
``ARCHITECTURE.md``, "Cache key and invalidation").
"""

from __future__ import annotations

import threading
from collections import OrderedDict

_STMT_CACHE_LIMIT = 512


def validation_key(db, tables=()) -> tuple:
    """``(schema_epoch, vectorize, buckets)`` for a plan reading ``tables``.

    ``buckets`` holds each table's ``n_rows.bit_length()``: the planner's
    size-dependent choices (the vectorize gate at ``VECTOR_MIN_ROWS``,
    index demotion from ``DEMOTE_MIN_ROWS``) sit on power-of-two edges,
    so a plan re-plans when its table crosses one, and a table growing
    to ``n`` rows re-plans about ``log2(n)`` times.  Estimates that move
    within a bucket (an index's distinct-key count) wait for the next
    edge, DDL or ``analyze()``.
    """
    buckets = []
    for name in tables:
        table = db.tables.get(name)
        buckets.append(-1 if table is None else table.n_rows.bit_length())
    return (db.schema_epoch, db.vectorize, tuple(buckets))


class PlanCache:
    """LRU of prepared statements by SQL text, plus plan-reuse counters.

    A *hit* is a statement replaying its still-valid plan slot; a *miss*
    is a plan built (an *invalidation* is a miss whose slot had gone
    stale); an *eviction* drops the least recently prepared statement.
    Shared by every connection, so the LRU sits behind a lock.
    """

    __slots__ = ("hits", "misses", "invalidations", "evictions",
                 "_statements", "_lock")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self._statements: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._statements)

    def info(self) -> dict:
        """Counters for introspection and tests."""
        return {
            "size": len(self._statements), "limit": _STMT_CACHE_LIMIT,
            "hits": self.hits, "misses": self.misses,
            "invalidations": self.invalidations, "evictions": self.evictions,
        }

    def get(self, sql: str):
        """The cached statement for ``sql`` (refreshed), or None."""
        with self._lock:
            prepared = self._statements.get(sql)
            if prepared is not None:
                self._statements.move_to_end(sql)
            return prepared

    def add(self, sql: str, prepared):
        """Cache ``prepared`` unless a racing thread got there first;
        returns whichever statement the cache now holds for ``sql``."""
        with self._lock:
            existing = self._statements.get(sql)
            if existing is not None:
                return existing
            while len(self._statements) >= _STMT_CACHE_LIMIT:
                self._statements.popitem(last=False)
                self.evictions += 1
            self._statements[sql] = prepared
            return prepared

    def count(self, hit: bool, stale: bool = False) -> None:
        """Tally one plan lookup: a slot replay, or a plan built."""
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
                if stale:
                    self.invalidations += 1
