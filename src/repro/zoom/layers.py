"""Layer specifications for multi-layer navigation (§4.2).

Each layer describes how a region is rendered at one zoom depth: coarse
layers return bucket counts, deep layers return raw points once the region
is small enough.  "The Hopara engine automatically runs SQL queries to
fetch each region" — here only the points layers do: the engine keeps the
bucket counts of all aggregate layers in one maintained histogram
(:class:`repro.zoom.tiles.HistogramPyramid`), whose resolution is set by
the ``level`` and ``buckets`` of the aggregate layers in the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NavigationError

AGGREGATE = "aggregate"
POINTS = "points"


@dataclass(frozen=True)
class LayerSpec:
    """One zoom layer.

    Attributes:
        level: depth (0 = coarsest).
        kind: ``aggregate`` (bucketed counts) or ``points`` (raw rows).
        buckets: number of x-buckets when aggregating.
        max_points: when a region holds fewer rows than this, the engine may
            descend to a points layer automatically.
    """

    level: int
    kind: str = AGGREGATE
    buckets: int = 32
    max_points: int = 1000

    def __post_init__(self):
        if self.kind not in (AGGREGATE, POINTS):
            raise NavigationError(f"unknown layer kind {self.kind!r}")
        if self.buckets < 1:
            raise NavigationError("buckets must be at least 1")


class LayerStack:
    """An ordered stack of layers, coarsest first."""

    def __init__(self, layers: list[LayerSpec] | None = None):
        if layers is None:
            layers = default_layers()
        if not layers:
            raise NavigationError("a layer stack needs at least one layer")
        ordered = sorted(layers, key=lambda l: l.level)
        if [l.level for l in ordered] != list(range(len(ordered))):
            raise NavigationError("layer levels must be consecutive from 0")
        self._layers = ordered

    def __len__(self) -> int:
        return len(self._layers)

    def __iter__(self):
        return iter(self._layers)

    @property
    def deepest(self) -> LayerSpec:
        return self._layers[-1]

    def layer(self, level: int) -> LayerSpec:
        """The layer at ``level`` (raises when out of range)."""
        if not 0 <= level < len(self._layers):
            raise NavigationError(
                f"no layer at level {level} (stack has {len(self._layers)})"
            )
        return self._layers[level]

    def next_level(self, level: int) -> int:
        """The level reached by one drill-down (clamped to the deepest)."""
        return min(level + 1, len(self._layers) - 1)


def default_layers(depth: int = 4, buckets: int = 32,
                   max_points: int = 1000) -> list[LayerSpec]:
    """A standard stack: aggregate layers with a raw-points layer at the end."""
    layers = [
        LayerSpec(level, AGGREGATE, buckets, max_points)
        for level in range(depth - 1)
    ]
    layers.append(LayerSpec(depth - 1, POINTS, buckets, max_points))
    return layers
