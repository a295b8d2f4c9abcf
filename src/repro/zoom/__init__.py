"""``repro.zoom`` — multi-layer pan/zoom navigation (the Hopara substitute).

Viewports, level-of-detail layers, region fetches (aggregate tiles from a
maintained histogram pyramid, points tiles from SQL behind an LRU tile
cache), a quadtree for 2D scatter queries, and the bar-chart drill-down
application measured in the paper's §6.2 Hopara evaluation.
"""

from repro.zoom.engine import BarChartView, DrillDownApp, RegionData, ZoomEngine
from repro.zoom.layers import AGGREGATE, POINTS, LayerSpec, LayerStack, default_layers
from repro.zoom.quadtree import QuadTree
from repro.zoom.tiles import HistogramPyramid, TileCache, TileGrid
from repro.zoom.viewport import Viewport

__all__ = [
    "AGGREGATE",
    "BarChartView",
    "DrillDownApp",
    "HistogramPyramid",
    "LayerSpec",
    "LayerStack",
    "POINTS",
    "QuadTree",
    "RegionData",
    "TileCache",
    "TileGrid",
    "Viewport",
    "ZoomEngine",
    "default_layers",
]
