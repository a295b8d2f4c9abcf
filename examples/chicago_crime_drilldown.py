"""Multi-layer navigation over the Chicago Crime dataset (§4.2).

Demonstrates the Hopara-style interaction model: bar-chart drill-down over
the categorical hierarchy, pan/zoom over coordinates with level-of-detail
layers, and a wrangling action fired from inside the drill-down view — the
exact interaction the paper's §6.2 Hopara evaluation measures.

Run:  python examples/chicago_crime_drilldown.py
"""

from repro import BuckarooSession, load_dataset
from repro.zoom import DrillDownApp, ZoomEngine

frame, _truth = load_dataset("chicago_crime", scale=0.02)
session = BuckarooSession.from_frame(frame, backend="sql")
print(f"loaded {frame.n_rows} crime records")

# -- bar-chart drill-down: primary type -> location ---------------------------
app = DrillDownApp(session.backend, ["primary_type", "location_description"])

view = app.current_view()
print("\ncrimes by primary type (SQL GROUP BY behind the bar chart):")
for category, count in view.bars[:6]:
    print(f"  {category:<24} {count}")

view = app.drill_into(view.bars[0][0])
print(f"\ndrilled into {app.path[0][1]!r} — by location "
      f"({view.seconds * 1000:.1f} ms):")
for category, count in view.bars[:5]:
    print(f"  {category:<24} {count}")

# -- the measured §6.2 interaction: remove a row from the drilled view --------
row_id = app.visible_row_ids(limit=1)[0]
refreshed, seconds = app.remove_row(row_id)
print(f"\nremoved row {row_id} from the drilled view in "
      f"{seconds * 1000:.2f} ms (one DELETE; its change event patched the chart)")
app.roll_up()

# -- continuous pan/zoom over coordinates with tiles and layers ---------------
engine = ZoomEngine(session.backend, "x_coordinate")
region = engine.fetch(engine.full_view(), level=0)
print(f"\nzoom level 0 (aggregate): {len(region.buckets)} buckets over "
      f"{region.row_count} rows in {region.seconds * 1000:.1f} ms")

viewport, level = engine.full_view(), 0
while region.kind == "aggregate":
    viewport, level, region = engine.drill_down(
        viewport, level, center_x=(engine.bounds.x0 + engine.bounds.x1) / 2,
    )
    print(f"zoom level {level} ({region.kind}): viewport width "
          f"{viewport.width:,.0f}, {region.row_count} rows, "
          f"{region.tiles_fetched} tiles queried / {region.tiles_cached} not")

viewport, region = engine.pan(viewport, level, fraction=0.25)
print(f"pan right: {region.tiles_cached} tiles served from cache "
      f"(hit rate {engine.cache.hit_rate:.0%})")
print(f"\nSQL queries issued by the navigation engine: {engine.queries_run} "
      f"(points tiles only; aggregate tiles come from the maintained histogram)")
