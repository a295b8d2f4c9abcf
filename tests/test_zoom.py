"""Tests for pan/zoom navigation: viewport, tiles, quadtree, engine, drill-down."""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import SQLBackend
from repro.config import BuckarooConfig
from repro.core.session import BuckarooSession
from repro.core.types import OP_DELETE_ROWS, OP_SET_CELLS, PlanOp, RepairPlan
from repro.errors import NavigationError
from repro.frame import DataFrame
from repro.snapshots import DeltaSnapshot
from repro.zoom import (
    AGGREGATE,
    DrillDownApp,
    LayerSpec,
    LayerStack,
    POINTS,
    QuadTree,
    TileCache,
    TileGrid,
    Viewport,
    ZoomEngine,
    default_layers,
)

from tests.test_backends import COLUMNS, ROWS


class TestViewport:
    def test_validation(self):
        with pytest.raises(NavigationError):
            Viewport(5, 5)
        with pytest.raises(NavigationError):
            Viewport(0, 1, y0=3, y1=2)
        with pytest.raises(NavigationError):
            Viewport(0, 1, y0=1)  # half-open y

    def test_contains(self):
        view = Viewport(0, 10, 0, 10)
        assert view.contains(0, 0)
        assert not view.contains(10, 5)
        assert not view.contains(5, -1)

    def test_pan(self):
        view = Viewport(0, 10).pan(5)
        assert (view.x0, view.x1) == (5, 15)

    def test_zoom_in_halves_width(self):
        view = Viewport(0, 10).zoom(0.5)
        assert view.width == pytest.approx(5)
        assert view.x0 == pytest.approx(2.5)

    def test_zoom_around_center(self):
        view = Viewport(0, 10).zoom(0.5, center_x=2)
        assert (view.x0, view.x1) == (pytest.approx(-0.5), pytest.approx(4.5))

    def test_clamp(self):
        bounds = Viewport(0, 10)
        clamped = Viewport(-5, 5).clamp_to(bounds)
        assert (clamped.x0, clamped.x1) == (0, 10)

    def test_intersects(self):
        assert Viewport(0, 5).intersects(Viewport(4, 8))
        assert not Viewport(0, 5).intersects(Viewport(5, 8))


class TestTileGrid:
    def test_tile_width_halves_per_level(self):
        grid = TileGrid(0, 100, base_tiles=4)
        assert grid.tile_width(0) == 25
        assert grid.tile_width(1) == 12.5

    def test_tile_of_clamped(self):
        grid = TileGrid(0, 100, base_tiles=4)
        assert grid.tile_of(-5, 0) == 0
        assert grid.tile_of(150, 0) == 3

    def test_tiles_for_range(self):
        grid = TileGrid(0, 100, base_tiles=4)
        assert grid.tiles_for_range(10, 60, 0) == [0, 1, 2]
        assert grid.tiles_for_range(60, 10, 0) == []

    def test_extent_roundtrip(self):
        grid = TileGrid(0, 100, base_tiles=4)
        x0, x1 = grid.tile_extent(2, 0)
        assert (x0, x1) == (50, 75)
        assert grid.tile_of((x0 + x1) / 2, 0) == 2

    @pytest.mark.parametrize("x_min, x_max, base_tiles", [
        (891835.01, 1432655.8, 64),     # state-plane feet: 1e-12 is below one ulp
        (-3.7e-9, 9.1e-9, 7),
        (0.1, 0.7, 3),
        (-1e15, 1e15 + 12345, 10),
    ])
    def test_edge_aligned_view_is_exactly_its_tiles(self, x_min, x_max, base_tiles):
        grid = TileGrid(x_min, x_max, base_tiles)
        for level in range(4):
            count = base_tiles * 2 ** level
            for index in range(count):
                x0, x1 = grid.tile_extent(index, level)
                # tile_of agrees with tile_extent on both edges ...
                assert grid.tile_of(x0, level) == index
                if index + 1 < count:
                    assert grid.tile_of(x1, level) == index + 1
                    assert grid.tile_extent(index + 1, level)[0] == x1
                # ... so a view of exactly one tile fetches exactly that tile
                assert grid.tiles_for_range(x0, x1, level) == [index]


class TestTileCache:
    def test_lru_eviction(self):
        cache = TileCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # a becomes most recent
        cache.put("c", 3)       # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1

    def test_hit_rate(self):
        cache = TileCache(capacity=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        assert cache.hit_rate == 0.5

    def test_invalidate(self):
        cache = TileCache(capacity=4)
        cache.put("a", 1)
        cache.invalidate()
        assert cache.get("a") is None


class TestQuadTree:
    def test_insert_and_query(self):
        tree = QuadTree(0, 0, 100, 100, capacity=2)
        for i in range(20):
            tree.insert(i * 5, i * 5, i)
        found = tree.query(Viewport(0, 26, 0, 26))
        assert sorted(p[2] for p in found) == [0, 1, 2, 3, 4, 5]

    def test_outside_extent_rejected(self):
        tree = QuadTree(0, 0, 10, 10)
        assert not tree.insert(20, 20, "x")
        assert len(tree) == 0

    def test_nearest(self):
        tree = QuadTree(0, 0, 100, 100, capacity=2)
        tree.insert(10, 10, "a")
        tree.insert(90, 90, "b")
        assert tree.nearest(12, 12)[2] == "a"
        assert tree.nearest(80, 85)[2] == "b"

    def test_2d_viewport_required(self):
        tree = QuadTree(0, 0, 10, 10)
        with pytest.raises(NavigationError):
            tree.query(Viewport(0, 5))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 99.9), st.floats(0, 99.9)),
                    max_size=100))
    def test_property_query_matches_linear_scan(self, points):
        tree = QuadTree(0, 0, 100, 100, capacity=4)
        for i, (x, y) in enumerate(points):
            tree.insert(x, y, i)
        view = Viewport(20, 70, 30, 80)
        found = {p[2] for p in tree.query(view)}
        expected = {
            i for i, (x, y) in enumerate(points) if view.contains(x, y)
        }
        assert found == expected


class TestLayers:
    def test_default_stack(self):
        stack = LayerStack()
        assert len(stack) == 4
        assert stack.layer(0).kind == AGGREGATE
        assert stack.deepest.kind == POINTS

    def test_levels_must_be_consecutive(self):
        with pytest.raises(NavigationError):
            LayerStack([LayerSpec(0), LayerSpec(2)])

    def test_next_level_clamped(self):
        stack = LayerStack(default_layers(depth=2))
        assert stack.next_level(0) == 1
        assert stack.next_level(1) == 1

    def test_bad_kind(self):
        with pytest.raises(NavigationError):
            LayerSpec(0, kind="hologram")


@pytest.fixture
def engine():
    backend = SQLBackend.from_frame(DataFrame.from_rows(ROWS, COLUMNS))
    return ZoomEngine(backend, "income", layers=LayerStack(default_layers(depth=2)))


class TestZoomEngine:
    def test_full_view_aggregate(self, engine):
        region = engine.fetch(engine.full_view(), level=0)
        assert region.kind == AGGREGATE
        assert region.row_count == 7  # numeric incomes only
        assert sum(n for _, _, n in region.buckets) == 7

    def test_points_layer(self, engine):
        region = engine.fetch(engine.full_view(), level=1)
        assert region.kind == POINTS
        assert region.row_count == 7
        rowids = {p[0] for p in region.points}
        assert 3 not in rowids  # '12k' has no numeric position
        assert 6 not in rowids  # NULL

    def test_narrow_viewport_filters_points(self, engine):
        region = engine.fetch(Viewport(49000, 56000), level=1)
        values = sorted(p[1] for p in region.points)
        assert values == [50000.0, 51000.0, 55000.0]

    def test_tile_cache_reused_on_pan(self, engine):
        view = Viewport(48000, 80000)
        engine.fetch(view, level=1)     # the points level: only it is cached
        misses_before = engine.cache.misses
        moved, region = engine.pan(view, level=1, fraction=0.1)
        assert engine.cache.hits > 0
        assert region.tiles_cached > 0
        assert engine.cache.misses >= misses_before  # few new tiles at most

    def test_drill_down_narrows_and_descends(self, engine):
        view, level, region = engine.drill_down(engine.full_view(), 0, 55000)
        assert level == 1
        assert view.width < engine.full_view().width

    def test_mutation_needs_no_invalidate(self, engine):
        for level in (0, 1):
            assert engine.fetch(engine.full_view(), level).row_count == 7
        engine.backend.delete_rows([1])
        for level in (0, 1):
            assert engine.fetch(engine.full_view(), level).row_count == 6

    def test_invalidate_empties_the_points_cache(self, engine):
        engine.fetch(engine.full_view(), level=1)
        assert len(engine.cache) > 0
        engine.invalidate()
        assert len(engine.cache) == 0
        assert engine.fetch(engine.full_view(), level=1).tiles_cached == 0

    def test_aggregate_fetch_runs_no_statement(self, engine):
        statements = count_statements(engine.backend.db)
        region = engine.fetch(engine.full_view(), level=0)
        assert region.tiles_fetched == 0 and region.tiles_cached == 4
        assert engine.queries_run == 0 and not statements
        assert len(engine.cache) == 0       # the LRU is left to the points layer

    def test_pyramid_is_sized_by_bins_not_rows(self):
        engine = nav_engine(nav_backend())
        # lcm over the aggregate layers of 2**level * buckets, per base tile
        assert engine.pyramid.bins_per_tile == 8
        assert len(engine.pyramid.counts) == 4 * 8
        assert sum(engine.pyramid.counts) == engine.backend.numeric_stats("x").count

    @pytest.mark.parametrize("indexed", [True, False])
    def test_points_query_skips_text_and_null(self, indexed):
        """Numeric range bounds alone keep text and NULL cells of the axis
        column out, under an index-range plan and under a seq-scan plan."""
        backend = nav_backend()
        engine = nav_engine(backend)
        table = backend.table_name
        if not indexed:
            backend.db.execute(f"DROP INDEX idx_{table}_x")
        plan = backend.db.explain(
            f'SELECT rowid, "x", "y" FROM {table} WHERE "x" >= ? AND "x" < ?',
            (engine.bounds.x0, engine.bounds.x1))
        assert ("IndexRangeScan" if indexed else "SeqScan") in plan
        cells = dict(zip(backend.all_row_ids(),
                         backend.values("x", backend.all_row_ids())))
        assert any(isinstance(x, str) for x in cells.values())
        assert any(x is None for x in cells.values())
        region = engine.fetch(engine.full_view(), level=2)
        assert sorted(p[0] for p in region.points) == sorted(
            row_id for row_id, x in cells.items() if isinstance(x, float))

    def test_rollback_reaches_the_pyramid(self, engine):
        before = engine.fetch(engine.full_view(), level=0).buckets
        connection = engine.backend.db.connect()
        connection.execute("BEGIN")
        connection.execute(
            f"DELETE FROM {engine.backend.table_name} WHERE rowid = 1")
        assert engine.fetch(engine.full_view(), level=0).row_count == 6
        connection.execute("ROLLBACK")
        connection.close()
        assert engine.fetch(engine.full_view(), level=0).buckets == before

    def test_rejects_empty_numeric_column(self):
        frame = DataFrame.from_dict({"a": ["x", "y"], "b": [None, None]})
        backend = SQLBackend.from_frame(frame)
        with pytest.raises(NavigationError):
            ZoomEngine(backend, "b")


class TestDrillDownApp:
    @pytest.fixture
    def app(self):
        backend = SQLBackend.from_frame(DataFrame.from_rows(ROWS, COLUMNS))
        return DrillDownApp(backend, ["country", "degree"])

    def test_top_level_bar_chart(self, app):
        view = app.current_view()
        assert dict(view.bars) == {"Bhutan": 4, "Lesotho": 4, "Nauru": 1}
        assert view.seconds > 0

    def test_drill_and_roll(self, app):
        view = app.drill_into("Bhutan")
        assert view.column == "degree"
        assert dict(view.bars) == {"BS": 2, "MS": 1, "PhD": 1}
        top = app.roll_up()
        assert top.column == "country"

    def test_cannot_drill_past_deepest(self, app):
        app.drill_into("Bhutan")
        with pytest.raises(NavigationError):
            app.drill_into("BS")

    def test_cannot_roll_past_top(self, app):
        with pytest.raises(NavigationError):
            app.roll_up()

    def test_visible_rows_respect_path(self, app):
        app.drill_into("Lesotho")
        rows = app.visible_row_ids()
        assert sorted(rows) == [5, 6, 7, 8]

    def test_remove_row_refreshes_chart(self, app):
        """The §6.2 measured interaction."""
        app.drill_into("Bhutan")
        view, seconds = app.remove_row(1)
        assert seconds > 0
        assert sum(n for _, n in view.bars) == 3

    def test_remove_row_runs_no_query_after_the_first_view(self, app):
        shown = app.drill_into("Bhutan")
        queries = app.queries_run
        statements = count_statements(app.backend.db)
        view, _seconds = app.remove_row(4)      # the only PhD: its bar goes
        assert view.bars == [("BS", 2), ("MS", 1)]
        view, _seconds = app.remove_row(1)      # ties keep their order
        assert view.bars == [("BS", 1), ("MS", 1)]
        assert view.path == (("country", "Bhutan"),) and view.column == "degree"
        assert app.queries_run == queries
        assert not [sql for sql in statements if sql.startswith("SELECT")]
        assert dict(shown.bars) == {"BS": 2, "MS": 1, "PhD": 1}   # a snapshot

    def test_remove_row_before_any_view_queries_once(self, app):
        view, _seconds = app.remove_row(9)
        assert dict(view.bars) == {"Bhutan": 4, "Lesotho": 4}
        assert app.queries_run == 1

    def test_patched_bars_resort_by_count(self, app):
        app.current_view()
        app.backend.delete_rows([1, 2])
        assert app.view.bars == [("Lesotho", 4), ("Bhutan", 2), ("Nauru", 1)]
        app.backend.set_cells("age", [5], 99)   # no hierarchy column: ignored
        app.backend.set_cells("country", [5, 6, 7], "Nauru")
        assert app.view.bars == [("Nauru", 4), ("Bhutan", 2), ("Lesotho", 1)]

    def test_empty_hierarchy_rejected(self):
        backend = SQLBackend.from_frame(DataFrame.from_rows(ROWS, COLUMNS))
        with pytest.raises(NavigationError):
            DrillDownApp(backend, [])


# -- maintained views under random edits ---------------------------------------

NAV_LAYERS = dict(depth=3, buckets=4)
HIERARCHY = ["kind", "place"]
KINDS = ["theft", "fraud", "arson"]
PLACES = ["street", "shop", "park", "bank"]
# rows 1 and 2 pin the axis ends and are never edited, so a freshly built
# engine always has the same bounds as the maintained one
PINNED = (1, 2)


def nav_backend() -> SQLBackend:
    rng = random.Random(13)
    rows = [("theft", "street", 0.0, 0.0), ("fraud", "shop", 1000.0, 1000.0)]
    for i in range(58):
        x = rng.choice([None, "n/a"]) if i % 9 == 0 else round(rng.uniform(1, 999), 2)
        rows.append((rng.choice(KINDS), rng.choice(PLACES), x,
                     round(rng.uniform(0, 1000), 2)))
    return SQLBackend.from_frame(
        DataFrame.from_rows(rows, ["kind", "place", "x", "y"]))


def nav_engine(backend) -> ZoomEngine:
    return ZoomEngine(backend, "x", "y",
                      layers=LayerStack(default_layers(**NAV_LAYERS)),
                      cache_capacity=32, base_tiles=4)


def count_statements(db) -> list:
    """Shadow ``db.prepare`` (every statement goes through it) with a
    recorder; returns the live list of SQL texts."""
    seen: list = []
    prepare = db.prepare

    def recording(sql):
        seen.append(sql)
        return prepare(sql)

    db.prepare = recording
    return seen


def region_key(region):
    return (region.buckets, sorted(region.points, key=lambda p: p[0]),
            region.row_count)


def assert_views_match_fresh(backend, engine, apps, rng) -> None:
    fresh = nav_engine(backend)
    assert fresh.bounds == engine.bounds
    views = [engine.full_view()]
    for _ in range(3):
        x0 = rng.uniform(-50, 950)
        views.append(Viewport(x0, x0 + rng.uniform(1, 600)))
    x0, y0 = rng.uniform(0, 500), rng.uniform(0, 500)
    views.append(Viewport(x0, x0 + 400, y0, y0 + 400))
    for level in range(3):
        for view in views:
            assert (region_key(engine.fetch(view, level))
                    == region_key(fresh.fetch(view, level))), (level, view)
    for app in apps:
        rebuilt = DrillDownApp(backend, HIERARCHY)
        view = rebuilt.current_view()
        for _column, category in app.path:
            view = rebuilt.drill_into(category)
        assert dict(app.view.bars) == dict(view.bars)
        assert all(n > 0 for _category, n in app.view.bars)
        counts = [n for _category, n in app.view.bars]
        assert counts == sorted(counts, reverse=True)


STEP = st.tuples(
    st.sampled_from(["delete", "x_num", "x_text", "x_null", "y", "relabel_kind",
                     "relabel_place", "reinsert", "session_delete",
                     "session_set_x", "speculate"]),
    st.integers(0, 10_000), st.integers(0, 10_000))


@settings(max_examples=30, deadline=None)
@given(steps=st.lists(STEP, min_size=1, max_size=12))
def test_maintained_views_equal_fresh_ones_under_random_edits(steps):
    """No ``invalidate()`` anywhere: the change feed alone keeps the engine's
    tiles and the apps' bars equal to freshly built ones."""
    backend = nav_backend()
    session = BuckarooSession(backend, BuckarooConfig(min_group_size=2))
    session.generate_groups(cat_cols=HIERARCHY, num_cols=["x", "y"])
    session.detect()
    engine = nav_engine(backend)
    top, drilled = DrillDownApp(backend, HIERARCHY), DrillDownApp(backend, HIERARCHY)
    top.current_view()
    drilled.drill_into("theft")
    apps = (top, drilled)
    rng = random.Random(len(steps))
    assert_views_match_fresh(backend, engine, apps, rng)    # also warms tiles
    removed: dict = {}

    def behind_the_session(delta: DeltaSnapshot) -> None:
        # what BuckarooApp does after a drill-down removal: keep the
        # session's groups and error index in step with a direct edit
        session.group_manager.apply_delta(delta)
        session.engine.index.drop_rows(delta.row_ids())

    for step, pick, other in steps:
        live = [r for r in backend.all_row_ids() if r not in PINNED]
        if len(live) < 4:
            break
        row_id = live[pick % len(live)]
        x = round(1 + other % 998 + (pick % 100) / 100, 2)
        if step == "delete":
            removed[row_id] = backend.row(row_id)
            behind_the_session(backend.delete_rows([row_id]))
        elif step == "reinsert":
            if not removed:
                continue
            back = sorted(removed)[pick % len(removed)]
            delta = DeltaSnapshot(inserted={back: removed.pop(back)})
            backend.apply_delta(delta)
            behind_the_session(delta)
        elif step in ("session_delete", "session_set_x", "speculate"):
            rows = tuple(sorted({row_id, live[other % len(live)]}))
            if step == "session_delete":
                ops = [PlanOp(OP_DELETE_ROWS, rows)]
            else:
                ops = [PlanOp(OP_SET_CELLS, rows, column="x", value=x)]
            plan = RepairPlan("test", None, None, ops=ops)
            if step == "speculate":     # applied and rolled back inside
                session.speculate(plan)
            else:
                session.apply(plan)
                assert_views_match_fresh(backend, engine, apps, rng)
                session.undo()
        else:
            column, value = {
                "x_num": ("x", x), "x_text": ("x", "n/a"), "x_null": ("x", None),
                "y": ("y", float(other % 1000)),
                "relabel_kind": ("kind", KINDS[other % len(KINDS)]),
                "relabel_place": ("place", PLACES[other % len(PLACES)]),
            }[step]
            behind_the_session(backend.set_cells(column, [row_id], value))
        assert_views_match_fresh(backend, engine, apps, rng)


def test_dropped_navigators_leave_the_change_feed():
    backend = nav_backend()
    observers = backend.db.table(backend.table_name).observers
    engine, app = nav_engine(backend), DrillDownApp(backend, HIERARCHY)
    subscribed = len(observers)
    for _ in range(5):      # callers that build navigators per request
        nav_engine(backend).fetch(engine.full_view(), 0)
        DrillDownApp(backend, HIERARCHY).current_view()
    gc.collect()
    assert len(observers) == subscribed
    app.current_view()
    del engine, app
    gc.collect()
    assert len(observers) == subscribed - 2
    backend.delete_rows([3])    # the feed still works with them gone
