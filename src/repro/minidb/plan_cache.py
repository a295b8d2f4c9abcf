"""minidb's one plan cache: prepared statements keyed by SQL text.

Plans compile every embedded expression into ``fn(row, params)``
closures, so one compiled tree answers every binding of the same SQL
text.  :class:`PlanCache` keeps parsed statements in an LRU; each
:class:`~repro.minidb.prepared.PreparedStatement` keeps its plan in a
private slot stamped with the :func:`validation_key` it was planned
under, and re-plans when DDL, a statistics rebuild or a planner knob
moves that key.  ``EXPLAIN SELECT x`` and ``SELECT x`` are two texts,
so two entries with two slots (see ``ARCHITECTURE.md``, "Cache key and
invalidation").
"""

from __future__ import annotations

import threading
from collections import OrderedDict

_STMT_CACHE_LIMIT = 512

#: stats_version placeholder for plans that do not depend on statistics
NO_STATS = -1


def validation_key(db, tables=(), check_stats: bool = True) -> tuple:
    """The current ``(schema_epoch, stats_version, vectorize)`` for ``db``.

    With ``check_stats`` the lazy statistics of every table in ``tables``
    are refreshed first, so a drift past the rebuild threshold bumps the
    version *before* the comparison — a cached plan never outlives the
    estimates it was costed against.  The ``vectorize`` knob changes the
    chosen tree, so it rides along in the key and flipping it re-plans
    instead of replaying the old choice.
    """
    if not check_stats:
        return (db.schema_epoch, NO_STATS, "auto")
    stats = db.stats
    for name in tables:
        table = db.tables.get(name)
        if table is not None:
            stats.for_table(table).refresh()
    return (db.schema_epoch, stats.version, db.vectorize)


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
