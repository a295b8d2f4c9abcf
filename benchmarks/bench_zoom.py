"""A6 — scalability of multi-layer navigation (§4.2).

"Multi-layer navigation ... ensures that only a manageable volume of data
is loaded into memory and visualized at once."  Measures viewport fetch
latency per zoom level (the two aggregate layers are read off the
maintained histogram pyramid, the points layer runs one SQL range query
per uncached tile), the benefit of the tile cache while panning the points
layer, and drill-down latency on a Chicago-Crime-shaped dataset.  Mean
latencies go to ``zoom.json``.
"""

import os

import pytest

from repro.backends import SQLBackend
from repro.bench import print_generic, write_json_artifact
from repro.zoom import LayerStack, Viewport, ZoomEngine, default_layers

from benchmarks.conftest import BENCH_SCALE, dataset_with_truth

POINTS_LEVEL = 2

_ROWS: list = []
_SECONDS: dict = {}


def _record(key: str, benchmark) -> None:
    """File one mean latency; write the artifact once all five are in."""
    _SECONDS[key] = benchmark.stats.stats.mean
    if len(_SECONDS) == 5:
        path = write_json_artifact("zoom", {
            "scale": BENCH_SCALE, "cpu_count": os.cpu_count(), **_SECONDS})
        print(f"artifact: {path}")


@pytest.fixture(scope="module")
def engine():
    frame, _truth = dataset_with_truth("chicago_crime")
    backend = SQLBackend.from_frame(frame)
    return ZoomEngine(
        backend, "x_coordinate",
        layers=LayerStack(default_layers(depth=3, max_points=2000)),
    )


@pytest.mark.parametrize("level", [0, 1, 2])
def test_fetch_latency_per_level(benchmark, level, engine):
    """Full-width fetch at each layer (coarse aggregate -> raw points)."""
    view = engine.full_view()

    def fetch():
        engine.cache.invalidate()  # measure cold fetches
        return engine.fetch(view, level=level)

    region = benchmark(fetch)
    assert region.row_count > 0
    _ROWS.append([
        f"level {level} ({region.kind})",
        f"{benchmark.stats.stats.mean * 1000:.1f} ms",
        region.row_count,
    ])
    _record(f"fetch_level{level}_{region.kind}_seconds", benchmark)
    if len(_ROWS) == 3:
        print_generic(
            "A6 — viewport fetch latency per zoom level (Chicago Crime shape)",
            ["Layer", "Cold fetch", "Rows/buckets"], _ROWS,
        )


def test_pan_with_warm_cache(benchmark, engine):
    """Panning the points layer re-uses cached tiles; only the newly exposed
    edge is fetched (aggregate layers keep nothing in the tile cache)."""
    bounds = engine.full_view()
    width = bounds.width / 4
    start = Viewport(bounds.x0, bounds.x0 + width)
    cache = engine.cache
    cache.invalidate()
    engine.fetch(start, level=POINTS_LEVEL)
    hits, misses = cache.hits, cache.misses

    state = {"view": start}

    def pan():
        state["view"], region = engine.pan(
            state["view"], level=POINTS_LEVEL, fraction=0.2)
        if state["view"].x1 >= bounds.x1:  # wrap around to keep panning
            state["view"] = Viewport(bounds.x0, bounds.x0 + width)
        return region

    benchmark(pan)
    hits, misses = cache.hits - hits, cache.misses - misses
    assert hits / (hits + misses) > 0.3, "panning must re-use cached tiles"
    _record("pan_seconds", benchmark)


def test_drill_down_latency(benchmark, engine):
    """Click-to-zoom: narrow the window one level deeper."""
    view = engine.full_view()
    center = (view.x0 + view.x1) / 2

    def drill():
        engine.cache.invalidate()
        return engine.drill_down(view, 0, center)

    _view, level, region = benchmark(drill)
    assert level == 1
    assert region.row_count >= 0
    _record("drill_down_seconds", benchmark)


def test_fetch_volume_bounded_by_viewport(engine):
    """A narrow viewport loads proportionally little data."""
    engine.cache.invalidate()
    bounds = engine.full_view()
    full = engine.fetch(bounds, level=2)
    engine.cache.invalidate()
    narrow_width = bounds.width / 16
    narrow = engine.fetch(
        Viewport(bounds.x0, bounds.x0 + narrow_width), level=2,
    )
    assert narrow.row_count < full.row_count / 4
