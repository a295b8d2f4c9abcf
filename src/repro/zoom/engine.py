"""The pan-and-zoom engine (the Hopara substitute, §4.2).

Two interaction modes mirror the paper:

* :class:`ZoomEngine` — continuous pan/zoom over a numeric axis with
  level-of-detail layers;
* :class:`DrillDownApp` — a bar-chart hierarchy over categorical attributes
  (the §6.2 Hopara evaluation removes rows from such a bar chart).

What queries and what is maintained.  Both subscribe, at construction, to
the change feed of the backend's table (``Table.observers`` — every insert,
delete and update, transaction rollbacks included) and keep their
navigation views current from it:

* *aggregate* zoom layers never query: their tiles are assembled from a
  :class:`~repro.zoom.tiles.HistogramPyramid` that is built in one pass
  over the axis column and then patched by ±1 per changed value, so an
  aggregate view costs O(buckets) whatever the table size;
* *points* zoom layers run one parameterized SQL range query per tile
  against the B+tree index on the navigation axis and keep the result in
  an LRU tile cache; a change event evicts exactly the cached tiles that
  cover the changed value;
* the drill-down's bar chart runs its ``GROUP BY`` when the user navigates
  (``current_view`` / ``drill_into`` / ``roll_up``) and is patched from the
  feed in between, so removing a row from the chart is one delete and no
  query.

Nothing above goes stale, so nobody *needs* to call
:meth:`ZoomEngine.invalidate` after editing the table — through this
module, the backend, a session ``apply``/``undo`` or plain SQL.  It remains
for callers that want the points cache emptied (cold-fetch measurements,
releasing memory).
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from repro.backends.sql_backend import SQLBackend
from repro.errors import NavigationError
from repro.minidb.storage import Table
from repro.zoom.layers import AGGREGATE, POINTS, LayerStack
from repro.zoom.tiles import HistogramPyramid, TileCache, TileGrid
from repro.zoom.viewport import Viewport


def _is_numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _subscribe(table: Table, on_change: Callable[[tuple], None]) -> None:
    """Deliver ``table``'s change events to the bound method ``on_change``
    for as long as its object is alive.

    The table holds only a weak reference, and the observer is taken off
    the feed when the object is collected: callers build navigators freely
    (one per chart, per request) without ever closing them.
    """
    method = weakref.WeakMethod(on_change)

    def observer(event: tuple) -> None:
        target = method()
        if target is not None:
            target(event)

    def unsubscribe() -> None:
        if observer in table.observers:
            table.observers.remove(observer)

    table.observers.append(observer)
    weakref.finalize(on_change.__self__, unsubscribe)


@dataclass
class RegionData:
    """The payload rendered for one fetched region."""

    level: int
    viewport: Viewport
    kind: str                       # 'aggregate' or 'points'
    buckets: list = field(default_factory=list)   # (x0, x1, count) for aggregates
    points: list = field(default_factory=list)    # (rowid, x[, y]) for points
    row_count: int = 0
    seconds: float = 0.0
    tiles_fetched: int = 0          # tiles that ran a SQL query
    tiles_cached: int = 0           # tiles served without one


class ZoomEngine:
    """Multi-layer navigation over one numeric axis of a SQL backend."""

    def __init__(self, backend: SQLBackend, x_col: str,
                 y_col: Optional[str] = None,
                 layers: Optional[LayerStack] = None,
                 cache_capacity: int = 64, base_tiles: int = 4):
        self.backend = backend
        self.x_col = x_col
        self.y_col = y_col
        self.layers = layers or LayerStack()
        backend.ensure_index(x_col)
        if y_col is not None:
            backend.ensure_index(y_col)
        stats = backend.numeric_stats(x_col)
        if stats.count == 0:
            raise NavigationError(f"column {x_col!r} has no numeric values")
        span = (stats.max - stats.min) or 1.0
        self.bounds = Viewport(stats.min, stats.max + span * 1e-9)
        self.grid = TileGrid(self.bounds.x0, self.bounds.x1, base_tiles)
        self.cache = TileCache(cache_capacity)
        self.queries_run = 0
        self._points_levels = [
            layer.level for layer in self.layers if layer.kind == POINTS]
        self._table = backend.db.table(backend.table_name)
        self._x_pos = self._table.schema.position(x_col)
        self._y_pos = (self._table.schema.position(y_col)
                       if y_col is not None else None)
        self.pyramid = HistogramPyramid(self.grid, (
            2 ** layer.level * layer.buckets
            for layer in self.layers if layer.kind == AGGREGATE))
        x_pos = self._x_pos
        for row in self._table.rows.values():
            if _is_numeric(row[x_pos]):
                self.pyramid.add(row[x_pos])
        _subscribe(self._table, self._on_change)

    # -- fetching ------------------------------------------------------------

    def full_view(self) -> Viewport:
        """The viewport covering the whole axis."""
        return self.bounds

    def fetch(self, viewport: Viewport, level: int = 0) -> RegionData:
        """Fetch one region at one layer: aggregate tiles from the pyramid,
        points tiles from the cache or one SQL range query each."""
        layer = self.layers.layer(level)
        start = time.perf_counter()
        tile_indexes = self.grid.tiles_for_range(viewport.x0, viewport.x1, level)
        if layer.kind == AGGREGATE:
            buckets = [
                bucket for index in tile_indexes
                for bucket in self.pyramid.tile_buckets(index, level, layer.buckets)
            ]
            return RegionData(
                level=level, viewport=viewport, kind=AGGREGATE, buckets=buckets,
                row_count=sum(n for _x0, _x1, n in buckets),
                seconds=time.perf_counter() - start,
                tiles_cached=len(tile_indexes),
            )
        fetched = cached = 0
        points: list = []
        for index in tile_indexes:
            key = (level, index)
            tile = self.cache.get(key)
            if tile is None:
                tile = self._query_points_tile(level, index)
                self.cache.put(key, tile)
                fetched += 1
            else:
                cached += 1
            points.extend(tile)
        if viewport.has_y and self.y_col is not None:
            points = [
                p for p in points
                if viewport.contains(p[1])
                and isinstance(p[2], (int, float))
                and viewport.y0 <= p[2] < viewport.y1
            ]
        else:
            points = [p for p in points if viewport.contains(p[1])]
        return RegionData(
            level=level, viewport=viewport, kind=POINTS, points=points,
            row_count=len(points), seconds=time.perf_counter() - start,
            tiles_fetched=fetched, tiles_cached=cached,
        )

    def _query_points_tile(self, level: int, index: int) -> list:
        # numeric bounds already keep NULL and text out: NULL compares to
        # nothing and text sorts above every number
        x0, x1 = self.grid.tile_extent(index, level)
        columns = f'rowid, "{self.x_col}"'
        if self.y_col is not None:
            columns += f', "{self.y_col}"'
        self.queries_run += 1
        result = self.backend.db.execute(
            f'SELECT {columns} FROM {self.backend.table_name} '
            f'WHERE "{self.x_col}" >= ? AND "{self.x_col}" < ?',
            (x0, x1),
        )
        return list(result.rows)

    # -- maintenance -----------------------------------------------------------

    def _on_change(self, event: tuple) -> None:
        """One table mutation: move its x between bins, evict its points tiles."""
        kind, _table, rowid = event[:3]
        if kind == "update":
            old, new = event[3], event[4]
            if self._x_pos in new:
                self._recount(old[self._x_pos], -1)
                self._recount(new[self._x_pos], +1)
            elif self._y_pos in new:
                # same bin, but cached points carry y
                self._recount(self._table.rows[rowid][self._x_pos], 0)
        else:
            self._recount(event[3][self._x_pos], 1 if kind == "insert" else -1)

    def _recount(self, x, delta: int) -> None:
        if not (_is_numeric(x) and self.bounds.contains(x)):
            return
        self.pyramid.add(x, delta)
        for level in self._points_levels:
            self.cache.evict((level, self.grid.tile_of(x, level)))

    # -- interaction ------------------------------------------------------------

    def drill_down(self, viewport: Viewport, level: int,
                   center_x: float) -> tuple[Viewport, int, RegionData]:
        """Zoom into a clicked region: halve the window, go one layer deeper."""
        new_level = self.layers.next_level(level)
        narrowed = viewport.zoom(0.5, center_x=center_x).clamp_to(self.bounds)
        return narrowed, new_level, self.fetch(narrowed, new_level)

    def pan(self, viewport: Viewport, level: int,
            fraction: float = 0.25) -> tuple[Viewport, RegionData]:
        """Shift the window by a fraction of its width (cache-friendly)."""
        moved = viewport.pan(viewport.width * fraction).clamp_to(self.bounds)
        return moved, self.fetch(moved, level)

    def invalidate(self) -> None:
        """Drop every cached points tile.

        Never needed for correctness — change events evict the tiles they
        touch — only to empty the cache (cold-fetch timing, memory).
        """
        self.cache.invalidate()


@dataclass
class BarChartView:
    """One level of the categorical drill-down: category -> count."""

    path: tuple                     # the (column, value) choices made so far
    column: str                     # the attribute charted at this level
    bars: list = field(default_factory=list)  # (category, count)
    seconds: float = 0.0


class DrillDownApp:
    """Hierarchical bar-chart navigation over categorical attributes.

    This is the §6.2 Hopara application shape: a bar chart backed by a SQL
    GROUP BY query; clicking a bar drills into that category; wrangling
    actions (row removal) run against the database and the visible chart
    refreshes immediately.  Navigating queries; between navigations the
    chart on screen is patched from the table's change feed, whoever made
    the change.
    """

    def __init__(self, backend: SQLBackend, hierarchy: Sequence[str]):
        if not hierarchy:
            raise NavigationError("drill-down needs at least one attribute")
        self.backend = backend
        self.hierarchy = list(hierarchy)
        for column in self.hierarchy:
            backend.ensure_index(column)
        self.path: list[tuple[str, object]] = []
        self.queries_run = 0
        self._table = backend.db.table(backend.table_name)
        self._positions = {
            column: self._table.schema.position(column)
            for column in self.hierarchy
        }
        # the chart on screen: as last queried, and its category -> count
        # in display order as the change feed has left it since
        self._shown: Optional[BarChartView] = None
        self._bars: dict = {}
        _subscribe(self._table, self._on_change)

    @property
    def depth(self) -> int:
        """How many drill-down steps have been taken."""
        return len(self.path)

    def current_view(self) -> BarChartView:
        """The bar chart at the current drill path (one SQL aggregate)."""
        start = time.perf_counter()
        column = self.hierarchy[min(self.depth, len(self.hierarchy) - 1)]
        where, params = self._path_predicate()
        result = self.backend.db.execute(
            f'SELECT "{column}", COUNT(*) FROM {self.backend.table_name}'
            f'{where} GROUP BY "{column}" ORDER BY 2 DESC',
            params,
        )
        self.queries_run += 1
        self._bars = dict(result.rows)
        self._shown = BarChartView(
            path=tuple(self.path), column=column,
            bars=list(result.rows),
            seconds=time.perf_counter() - start,
        )
        return self._shown

    @property
    def view(self) -> Optional[BarChartView]:
        """The last chart navigated to as it stands now (no query): zero
        bars gone, bars by falling count, ties in their previous order."""
        if self._shown is None:
            return None
        start = time.perf_counter()
        bars = sorted(self._bars.items(), key=lambda bar: -bar[1])
        self._bars = dict(bars)     # the order shown is the next "previous"
        return replace(self._shown, bars=bars,
                       seconds=time.perf_counter() - start)

    def drill_into(self, category) -> BarChartView:
        """Click a bar: restrict to that category, one level deeper."""
        if self.depth >= len(self.hierarchy) - 1:
            raise NavigationError("already at the deepest drill level")
        column = self.hierarchy[self.depth]
        self.path.append((column, category))
        return self.current_view()

    def roll_up(self) -> BarChartView:
        """Navigate one level back up."""
        if not self.path:
            raise NavigationError("already at the top level")
        self.path.pop()
        return self.current_view()

    def visible_row_ids(self, limit: Optional[int] = None) -> list[int]:
        """Row ids inside the current drill path."""
        where, params = self._path_predicate()
        limit_sql = f" LIMIT {int(limit)}" if limit is not None else ""
        result = self.backend.db.execute(
            f"SELECT rowid FROM {self.backend.table_name}{where}{limit_sql}",
            params,
        )
        self.queries_run += 1
        return result.scalars()

    def remove_row(self, row_id: int) -> tuple[BarChartView, float]:
        """The §6.2 measured interaction: delete one row, refresh the chart.

        The delete's change event has patched the chart by the time it
        returns, so the refresh is not a query.  Returns the refreshed
        view and the end-to-end latency in seconds.
        """
        start = time.perf_counter()
        self.backend.delete_rows([row_id])
        view = self.view or self.current_view()
        return view, time.perf_counter() - start

    # -- maintenance -----------------------------------------------------------

    def _on_change(self, event: tuple) -> None:
        """One table mutation: a row on the shown path ±1s its bar."""
        if self._shown is None:
            return
        kind, _table, rowid = event[:3]
        if kind == "update":
            old, new = event[3], event[4]
            if not any(pos in new for pos in self._positions.values()):
                return
            after = self._table.rows[rowid]
            before = list(after)
            for position, value in old.items():
                before[position] = value
            self._bump(before, -1)
            self._bump(after, +1)
        else:
            self._bump(event[3], 1 if kind == "insert" else -1)

    def _bump(self, row: Sequence, delta: int) -> None:
        for column, value in self._shown.path:
            cell = row[self._positions[column]]
            # _path_predicate's "col" IS NULL / "col" = ?
            if not (cell is None if value is None else cell == value):
                return
        category = row[self._positions[self._shown.column]]
        count = self._bars.get(category, 0) + delta
        if count > 0:
            self._bars[category] = count
        else:
            self._bars.pop(category, None)

    def _path_predicate(self) -> tuple[str, tuple]:
        if not self.path:
            return "", ()
        clauses = []
        params = []
        for column, value in self.path:
            if value is None:
                clauses.append(f'"{column}" IS NULL')
            else:
                clauses.append(f'"{column}" = ?')
                params.append(value)
        return " WHERE " + " AND ".join(clauses), tuple(params)
