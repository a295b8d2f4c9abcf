"""The backend cache (§3.2): incrementally maintained group statistics.

"Following previous architectures, Buckaroo maintains a backend cache.
When a data group is modified, only the affected rows in the backend cache
are updated."  This module implements that cache for the SQL backend:

* per numeric chart attribute — count/sum/sum-of-squares (hence mean and
  std) globally and per category of every categorical chart attribute;
* the set of rows with NULL in each numeric attribute (missing values);
* the set of rows with text in each numeric attribute (type mismatches).

Every table mutation updates the cache in O(changed cells); detector and
re-plot queries that would otherwise scan a group become O(1) or
O(answer).  The frame backend deliberately has no such cache — it
recomputes from the full column, which is the cost asymmetry Table 1
measures.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

from repro.core.types import Stats
from repro.minidb.storage import Table


def _is_numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class _Moments:
    """Incrementally maintained count/sum/sum-of-squares, *shifted*.

    The unshifted form cancels catastrophically once the mean dwarfs the
    spread: at mean ~1e9 and std ~1 the two ~1e18 terms of
    ``sumsq/n - mean**2`` agree to every stored digit, so the variance is
    pure rounding noise and long add/``remove`` edit sessions silently
    collapse the std to 0 (saved only from going imaginary by a clamp).
    Accumulating ``value - shift`` instead — with the first value seen as
    the shift — keeps the sums at the scale of the spread, where the
    subtraction is benign, while addition/subtraction still cancel exactly
    under removal for integer-valued data.

    No O(1)-memory accumulator survives *removing* a value that dominated
    the sums (the subtraction cancels nearly everything, leaving rounding
    noise — e.g. a far-outlier anchor value being repaired away).  Each
    removal's share of the second moment is Welford's ``(x - old mean)
    * (x - new mean)``; ``removed`` keeps the largest since the last
    rebuild.  While it outweighs half of the second moment now held —
    the data left is too small to drown the removal's rounding — the
    accumulator is ``suspect`` and the cache rebuilds it from the table,
    so the moments are the ones a fresh scan of the rows computes.
    Re-adding the value (a rolled-back delete) restores the second
    moment and with it the trust.
    """

    __slots__ = ("n", "shift", "total", "sumsq", "removed")
    _STATE = __slots__

    def __init__(self) -> None:
        self.n = 0
        self.shift: float | None = None
        self.total = 0.0
        self.sumsq = 0.0
        self.removed = 0.0  # largest removal share since the last rebuild

    def add(self, value: float) -> None:
        if self.shift is None:
            self.shift = value
        centered = value - self.shift
        self.n += 1
        self.total += centered
        self.sumsq += centered * centered

    def remove(self, value: float) -> None:
        if self.n <= 1:
            # dropping the last value: reset so the next add re-anchors
            self.__init__()
            return
        centered = value - self.shift
        before = centered - self.total / self.n
        self.n -= 1
        self.total -= centered
        self.sumsq -= centered * centered
        share = before * (centered - self.total / self.n)
        if share > self.removed:
            self.removed = share

    @property
    def suspect(self) -> bool:
        """True when a removal may have left rounding noise in the moments."""
        if not self.removed:
            return False
        return 2 * self.removed > self.sumsq - self.total * self.total / self.n

    @property
    def mean(self) -> float | None:
        return self.shift + self.total / self.n if self.n else None

    @property
    def std(self) -> float | None:
        if not self.n:
            return None
        variance = max(self.sumsq / self.n - (self.total / self.n) ** 2, 0.0)
        return math.sqrt(variance)


class _NumericCache:
    """All cached state for one tracked numeric column."""

    __slots__ = ("position", "missing", "text", "global_moments",
                 "per_cat", "min", "max", "range_dirty")
    #: what a rolled-back write leaves inexact (the sets come back exactly)
    _STATE = ("min", "max", "range_dirty")

    def __init__(self, position: int):
        self.position = position
        self.missing: set[int] = set()
        self.text: set[int] = set()
        self.global_moments = _Moments()
        self.per_cat: dict[str, dict] = {}   # cat_col -> {category: _Moments}
        self.min: float | None = None
        self.max: float | None = None
        self.range_dirty = False


class GroupStatsCache:
    """Incremental statistics over the chart attributes of one table."""

    def __init__(self, table: Table):
        self.table = table
        self._numeric: dict[str, _NumericCache] = {}
        self._cat_positions: dict[str, int] = {}
        # {id: (accumulator, state)} while :meth:`restoring` is open
        self._journal: dict | None = None
        table.observers.append(self._on_change)

    # -- registration ------------------------------------------------------------

    def track(self, cat_cols: list[str], num_cols: list[str]) -> None:
        """Start (or extend) tracking; builds the cache in one table scan.

        A newly tracked categorical column needs buckets in every numeric
        cache, so it rebuilds them all in that scan.
        """
        new_cats = [c for c in cat_cols if c not in self._cat_positions]
        new_nums = [c for c in num_cols if c not in self._numeric]
        for cat in new_cats:
            self._cat_positions[cat] = self.table.schema.position(cat)
        stale = [*self._numeric, *new_nums] if new_cats else new_nums
        if not stale:
            return
        caches = []
        for num in stale:
            cache = _NumericCache(self.table.schema.position(num))
            cache.per_cat = {cat: {} for cat in self._cat_positions}
            self._numeric[num] = cache
            caches.append(cache)
        for rowid, row in self.table.scan():
            keyed = self._keyed(row)
            for cache in caches:
                self._add(cache, rowid, row[cache.position], keyed)

    def tracks_numeric(self, num_col: str) -> bool:
        return num_col in self._numeric

    def tracks_pair(self, num_col: str, cat_col: str | None) -> bool:
        if num_col not in self._numeric:
            return False
        return cat_col is None or cat_col in self._cat_positions

    # -- queries -------------------------------------------------------------------

    def stats(self, num_col: str, cat_col: str | None = None,
              category=None) -> Stats:
        """Cached statistics (min/max only available at global scope)."""
        cache = self._numeric[num_col]
        if cat_col is None:
            moments = cache.global_moments
            if moments.suspect:
                self._rebuild_moments(moments, cache, None, None)
            low, high = self._range_of(num_col, cache)
            return Stats(moments.n, moments.mean, moments.std, low, high)
        bucket = cache.per_cat[cat_col].get(category)
        if bucket is None or not bucket.n:
            return Stats(0, None, None, None, None)
        if bucket.suspect:
            self._rebuild_moments(bucket, cache, cat_col, category)
        return Stats(bucket.n, bucket.mean, bucket.std, None, None)

    def _rebuild_moments(self, moments: _Moments, cache: _NumericCache,
                         cat_col: str | None, category) -> None:
        """Recompute ``moments`` in place from the table.

        Removing a value that dominated the sums (an extreme outlier being
        repaired away) leaves any O(1) accumulator holding rounding noise;
        this one-scan rebuild re-anchors it on the surviving data.  It adds
        in rowid order — the order :meth:`track` met the rows in before a
        rolled-back delete re-inserted one at the end — so it computes what
        a fresh cache over the surviving rows would, bit for bit.
        """
        moments.__init__()
        cat_position = (
            self._cat_positions[cat_col] if cat_col is not None else None
        )
        rows = self.table.rows
        for row in map(rows.__getitem__, sorted(rows)):
            if cat_position is not None and row[cat_position] != category:
                continue
            value = row[cache.position]
            if _is_numeric(value):
                moments.add(float(value))

    def missing_rows(self, num_col: str) -> set[int]:
        """Rows whose tracked column is NULL (live view — do not mutate)."""
        return self._numeric[num_col].missing

    def text_rows(self, num_col: str) -> set[int]:
        """Rows whose tracked column holds text (type mismatches)."""
        return self._numeric[num_col].text

    def _range_of(self, num_col: str, cache: _NumericCache):
        if not cache.global_moments.n:
            return None, None
        if cache.range_dirty:
            cache.min, cache.max = self._recompute_range(num_col, cache)
            cache.range_dirty = False
        return cache.min, cache.max

    def _recompute_range(self, num_col: str, cache: _NumericCache):
        indexes = self.table.indexes_on(num_col)
        if indexes:
            low, high = indexes[0].numeric_min(), indexes[0].numeric_max()
            return (None, None) if low is None else (float(low), float(high))
        low = high = None
        for row in self.table.rows.values():
            value = row[cache.position]
            if _is_numeric(value):
                value = float(value)
                low = value if low is None else min(low, value)
                high = value if high is None else max(high, value)
        return low, high

    # -- tentative writes ------------------------------------------------------

    @contextmanager
    def restoring(self):
        """Restore every accumulator the writes inside touch to its state
        on entry, for writes the caller rolls back before it exits.

        Re-adding what a write removed leaves rounding residue, so without
        this a write-and-rollback would leave the moments a bit off the
        ones it started from, and a second identical write-and-rollback
        could judge a value sitting on an outlier bound differently.
        """
        self._journal = {}
        try:
            yield
            # on an exception the writes may stand: keep what they left
            for accumulator, state in self._journal.values():
                for name, value in zip(accumulator._STATE, state):
                    setattr(accumulator, name, value)
        finally:
            self._journal = None

    def _save(self, rows) -> None:
        """Journal, once per :meth:`restoring`, every accumulator a change
        to the rows with these values can touch — a bucket it would
        create is created empty here, so it is journaled empty."""
        journal = self._journal
        keyed = [pair for row in rows for pair in self._keyed(row)]
        for cache in self._numeric.values():
            touched = [cache, cache.global_moments]
            touched += [cache.per_cat[cat].setdefault(category, _Moments())
                        for cat, category in keyed]
            for accumulator in touched:
                if id(accumulator) not in journal:
                    journal[id(accumulator)] = (accumulator, [
                        getattr(accumulator, name) for name in accumulator._STATE])

    # -- maintenance -------------------------------------------------------------

    def _keyed(self, row) -> list:
        """``(cat_col, bucket key)`` of ``row`` for every tracked category."""
        return [(cat, row[position])
                for cat, position in self._cat_positions.items()]

    def _on_change(self, event: tuple) -> None:
        kind = event[0]
        if self._journal is not None:
            if kind == "update":
                _, _, rowid, old, new = event
                row = self.table.rows[rowid]  # post-update state
                before = list(row)
                for position, value in old.items():
                    before[position] = value
                self._save([before, row])
            else:
                self._save([event[3]])
        if kind == "insert":
            _, _, rowid, values = event
            keyed = self._keyed(values)
            for cache in self._numeric.values():
                self._add(cache, rowid, values[cache.position], keyed)
        elif kind == "delete":
            _, _, rowid, values = event
            keyed = self._keyed(values)
            for cache in self._numeric.values():
                self._remove(cache, rowid, values[cache.position], keyed)
        else:  # update
            _, _, rowid, old, new = event
            self._on_update(rowid, old, new)

    def _on_update(self, rowid: int, old: dict, new: dict) -> None:
        row = self.table.rows[rowid]  # post-update state
        changed_positions = set(new)
        # numeric columns whose value changed
        changed = [cache for cache in self._numeric.values()
                   if cache.position in changed_positions]
        if changed:
            before = [(cat, old.get(position, row[position]))
                      for cat, position in self._cat_positions.items()]
            after = self._keyed(row)
            for cache in changed:
                self._remove(cache, rowid, old[cache.position], before)
                self._add(cache, rowid, new[cache.position], after)
        # categorical columns whose value changed move every *unchanged*
        # numeric value between buckets
        for cat, position in self._cat_positions.items():
            if position not in changed_positions:
                continue
            old_category = old[position]
            new_category = new[position]
            if old_category == new_category:
                continue
            for num, cache in self._numeric.items():
                if cache.position in changed_positions:
                    continue  # already rebucketed above
                value = row[cache.position]
                if not _is_numeric(value):
                    continue
                value = float(value)
                buckets = cache.per_cat[cat]
                source = buckets.get(old_category)
                if source is not None:
                    source.remove(value)
                buckets.setdefault(new_category, _Moments()).add(value)

    def _add(self, cache: _NumericCache, rowid: int, value, keyed) -> None:
        """Count row ``rowid``'s ``value``: in the missing or text set, or
        in the global moments, the range and the bucket of every
        ``(cat_col, bucket key)`` in ``keyed``."""
        if value is None:
            cache.missing.add(rowid)
            return
        if not _is_numeric(value):
            cache.text.add(rowid)
            return
        value = float(value)
        cache.global_moments.add(value)
        if cache.min is None or value < cache.min:
            cache.min = value
        if cache.max is None or value > cache.max:
            cache.max = value
        for cat, category in keyed:
            cache.per_cat[cat].setdefault(category, _Moments()).add(value)

    def _remove(self, cache: _NumericCache, rowid: int, value, keyed) -> None:
        """Undo :meth:`_add` of the same arguments."""
        if value is None:
            cache.missing.discard(rowid)
            return
        if not _is_numeric(value):
            cache.text.discard(rowid)
            return
        value = float(value)
        cache.global_moments.remove(value)
        if value == cache.min or value == cache.max:
            cache.range_dirty = True
        for cat, category in keyed:
            bucket = cache.per_cat[cat].get(category)
            if bucket is not None:
                bucket.remove(value)
