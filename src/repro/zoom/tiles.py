"""Tile mathematics, the histogram pyramid and the LRU tile cache.

Multi-layer navigation "ensures that only the visible portion of the data
is loaded and rendered at any given time" (§4.2): the x-range is cut into
tiles per zoom level (tile width halves per level).  Three pieces share
that arithmetic:

* :class:`TileGrid` maps coordinates to tiles; ``tile_of`` and
  ``tile_extent`` agree exactly, so the tile a value is filed under is the
  tile whose range query returns it;
* :class:`HistogramPyramid` is a flat array of counts fine enough that
  every bucket of every aggregate layer is a whole run of its bins.  It is
  built once and then maintained by ±1 per changed value, so aggregate
  tiles are assembled from it without touching the table;
* :class:`TileCache` keeps the raw-points tiles that were fetched by SQL,
  so panning re-uses neighbouring fetches.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Iterable

from repro.errors import NavigationError


class TileGrid:
    """Maps x-coordinates to integer tile indexes per zoom level."""

    def __init__(self, x_min: float, x_max: float, base_tiles: int = 4):
        if x_max <= x_min:
            raise NavigationError("tile grid extent must be non-empty")
        self.x_min = x_min
        self.x_max = x_max
        self.base_tiles = base_tiles

    def tile_width(self, level: int) -> float:
        """Width of one tile at ``level`` (halves with each level)."""
        return (self.x_max - self.x_min) / (self.base_tiles * (2 ** level))

    def tile_of(self, x: float, level: int) -> int:
        """The tile whose ``tile_extent`` contains ``x`` (clamped to the grid)."""
        width = self.tile_width(level)
        x_min = self.x_min
        last = self.base_tiles * (2 ** level) - 1
        index = min(max(int((x - x_min) // width), 0), last)
        # the division can land one tile off an edge that the multiplication
        # in tile_extent puts on the other side of x
        while index > 0 and x < x_min + index * width:
            index -= 1
        while index < last and x >= x_min + (index + 1) * width:
            index += 1
        return index

    def tile_extent(self, index: int, level: int) -> tuple[float, float]:
        """The ``[x0, x1)`` range of one tile; neighbours share their edge."""
        width = self.tile_width(level)
        return (self.x_min + index * width, self.x_min + (index + 1) * width)

    def tiles_for_range(self, x0: float, x1: float, level: int) -> list[int]:
        """Tile indexes intersecting ``[x0, x1)``."""
        if x1 <= x0:
            return []
        first = self.tile_of(max(x0, self.x_min), level)
        last = self.tile_of(
            math.nextafter(min(x1, self.x_max), -math.inf), level)
        return list(range(first, last + 1))


class HistogramPyramid:
    """Counts over a :class:`TileGrid` axis that serve every aggregate layer.

    ``resolutions`` holds, per aggregate layer, its buckets per base tile
    (``2**level * buckets``); the bins per base tile are their least common
    multiple, so a bucket of any of those layers is an exact run of bins.
    Memory is O(bins) whatever the row count.
    """

    def __init__(self, grid: TileGrid, resolutions: Iterable[int]):
        self.grid = grid
        self.bins_per_tile = math.lcm(*resolutions)
        # the bins are the level-0 tiles of a finer grid over the same axis,
        # so one function (tile_of) files a value at build and at maintenance
        self._bins = TileGrid(grid.x_min, grid.x_max,
                              grid.base_tiles * self.bins_per_tile)
        self.counts = [0] * self._bins.base_tiles

    def add(self, x: float, delta: int = 1) -> None:
        """Count ``x`` in (``delta=1``) or out (``delta=-1``); values off the
        axis are not counted."""
        if self.grid.x_min <= x < self.grid.x_max:
            self.counts[self._bins.tile_of(x, 0)] += delta

    def tile_buckets(self, index: int, level: int,
                     buckets: int) -> list[tuple[float, float, int]]:
        """The non-empty ``(x0, x1, count)`` buckets of one aggregate tile."""
        run = self.bins_per_tile // (2 ** level * buckets)
        x0, x1 = self.grid.tile_extent(index, level)
        width = (x1 - x0) / buckets
        counts = self.counts
        first = index * buckets * run
        out = []
        for bucket in range(buckets):
            start = first + bucket * run
            n = sum(counts[start:start + run])
            if n:
                b0 = x0 + bucket * width
                out.append((b0, b0 + width, n))
        return out


class TileCache:
    """LRU cache keyed by ``(level, tile_index)`` with hit statistics."""

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise NavigationError("cache capacity must be at least 1")
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        """The cached payload, or None (counts hit/miss)."""
        payload = self._entries.get(key)
        if payload is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return payload

    def put(self, key, payload) -> None:
        """Insert/update, evicting the least recently used beyond capacity."""
        self._entries[key] = payload
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def evict(self, key) -> None:
        """Drop one entry whose data changed (absent keys are fine)."""
        self._entries.pop(key, None)

    def invalidate(self) -> None:
        """Drop everything."""
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
