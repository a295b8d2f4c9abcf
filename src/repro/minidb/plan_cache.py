"""The parameterized plan cache behind minidb's prepared-statement API.

Physical plans compile every embedded expression into closures of shape
``fn(row, params)`` — parameter slots bind at *execution* time, never at
plan time — so one compiled tree answers every binding of the same SQL
shape.  This module caches those trees and decides when they are still
trustworthy.

Cache key and invalidation
--------------------------

Entries are keyed by the **statement AST** (frozen dataclasses, so
structural equality comes for free: ``EXPLAIN SELECT ...`` and the bare
``SELECT ...`` share one entry).  Each entry records the
``(schema_epoch, stats_version)`` pair it was planned under:

* ``Database.schema_epoch`` advances on every DDL statement — CREATE /
  DROP TABLE or INDEX, ALTER ADD COLUMN — since any of these can change
  the best access path or the row layout a plan compiled against;
* ``StatsManager.version`` advances whenever any table's statistics are
  rebuilt (lazily after enough mutations, or forced by ``analyze()``),
  since join order, merge steering, and stream-aggregation choices all
  hang off those estimates.

Before reusing a SELECT entry the cache *pokes* the lazy statistics of
every table the plan reads (``refresh()`` is a cheap staleness check
when nothing drifted).  A pending rebuild therefore fires first, bumps
the version, and invalidates the entry — mutation-driven re-plans happen
exactly when the planner would have seen different numbers.  Compiled
DML plans skip the stats check (``plan_scan`` never consults statistics)
and invalidate on schema epoch alone.

Eviction is LRU over an ordered dict; lookups move entries to the tail,
overflow pops the head.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.minidb.planner import SelectPlan, plan_select

DEFAULT_PLAN_CACHE_LIMIT = 256

#: stats_version placeholder for entries that do not depend on statistics
NO_STATS = -1


def validation_key(db, tables=(), check_stats: bool = True) -> tuple:
    """The current ``(schema_epoch, stats_version, knobs)`` for ``db``.

    With ``check_stats`` the lazy statistics of every table in ``tables``
    are refreshed first, so a drift past the rebuild threshold bumps the
    version *before* the comparison — a cached plan never outlives the
    estimates it was costed against.  Planner knobs that change the
    chosen tree (``reorder_joins``, ``vectorize``) ride along in the key
    so flipping them re-plans instead of replaying the old choice.
    """
    if not check_stats:
        return (db.schema_epoch, NO_STATS, True, "auto")
    stats = db.stats
    for name in tables:
        table = db.tables.get(name)
        if table is not None:
            stats.for_table(table).refresh()
    return (db.schema_epoch, stats.version, db.reorder_joins, db.vectorize)


class _Entry:
    __slots__ = ("payload", "tables", "key", "check_stats")

    def __init__(self, payload, tables, key, check_stats):
        self.payload = payload
        self.tables = tables
        self.key = key
        self.check_stats = check_stats


class PlanCache:
    """LRU cache of compiled plans keyed by statement AST.

    ``enabled=False`` turns every lookup into a miss and every store into
    a no-op — the re-planning baseline the prepared-statement benchmark
    measures against.  ``enabled`` is effective only while ``limit`` is
    positive, so setting either ``limit = 0`` or ``enabled = False`` at
    runtime switches caching off (and back on again symmetrically).
    """

    __slots__ = ("limit", "_enabled", "hits", "misses", "invalidations",
                 "_entries", "_lock")

    def __init__(self, limit: int = DEFAULT_PLAN_CACHE_LIMIT):
        self.limit = max(0, int(limit))
        self._enabled = True
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._entries: OrderedDict = OrderedDict()
        # plans are shared across connections; lookups/stores must not
        # tear the LRU dict under concurrent sessions
        self._lock = threading.RLock()

    @property
    def enabled(self) -> bool:
        return self._enabled and self.limit > 0

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def info(self) -> dict:
        """Counters for introspection and tests."""
        return {
            "size": len(self._entries), "limit": self.limit,
            "hits": self.hits, "misses": self.misses,
            "invalidations": self.invalidations,
        }

    def lookup(self, db, stmt):
        """The cached payload for ``stmt``, or None (miss / stale / off)."""
        if not self.enabled:
            return None
        with self._lock:
            try:
                entry = self._entries.get(stmt)
            except TypeError:  # unhashable statement: never cached
                return None
            if entry is None:
                self.misses += 1
                return None
            if entry.key != validation_key(db, entry.tables, entry.check_stats):
                del self._entries[stmt]
                self.invalidations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(stmt)
            self.hits += 1
            return entry.payload

    def record_hit(self) -> None:
        """Count a reuse served outside :meth:`lookup` (a prepared
        statement replaying its still-valid private slot)."""
        with self._lock:
            self.hits += 1

    def store(self, db, stmt, payload, tables, check_stats: bool) -> None:
        """Insert ``payload``, evicting the least recently used overflow.

        The validation key is captured *now* — after planning — so stats
        rebuilds triggered during planning are part of the recorded
        version, not a pending invalidation.
        """
        if not self.enabled:
            return
        with self._lock:
            key = validation_key(db, tables, check_stats)
            entry = _Entry(payload, tuple(tables), key, check_stats)
            try:
                self._entries[stmt] = entry
            except TypeError:
                return
            self._entries.move_to_end(stmt)
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)


def select_plan(db, stmt) -> tuple[SelectPlan, bool]:
    """``(plan, cache_hit)`` for a SELECT — the shared cached entry point.

    Every SELECT path (``execute``, ``stream``, prepared statements,
    EXPLAIN) resolves its plan here, so they all share one cache and one
    invalidation story.
    """
    cache = getattr(db, "plan_cache", None)
    if cache is None:
        return plan_select(db, stmt), False
    plan = cache.lookup(db, stmt)
    if plan is not None:
        return plan, True
    plan = plan_select(db, stmt)
    cache.store(db, stmt, plan, plan.tables, check_stats=True)
    return plan, False
