"""``explore_zoom``: pan-and-zoom navigation, sampling and drill-down edits.

One user on a Chicago-Crime-shaped extract held by ``SQLBackend``
``:memory:``.  A *round* is the fixed script

    phase A  a seeded walk of pan / drill_down / zoom-out / jump over
             ZoomEngine(x_coordinate, y_coordinate, depth 3), one viewport
             fetch per step, an ErrorFirstSampler(budget=2000) +
             histogram / minmax_decimate render every 10th step
    phase B  DrillDownApp: drill into the tallest bar -> visible_row_ids ->
             40 x remove_row -> roll_up, with ZoomEngine.invalidate() + a
             refetch after every 20 removals

and rounds repeat until the clock runs out.  The tile cache holds fewer
tiles than the walk touches and starts every round empty, so about half
the fetches query at least one tile.  The removed rows are put back
between rounds (outside the clock), so every round sees the same table.
The work is range / GROUP BY scans and cache-invalidating deletes on the
same ``minidb`` the wrangle workloads use for point writes.
"""

from __future__ import annotations

import time

import numpy as np

from e2e_common import (
    CPU_CLOCK, OpLog, Phase, median, ms, percentile, ratio, untraced_call,
)
from e2e_trace import (
    TracedBackend, Tracer, storage_metrics, trace_database, untrace_database,
)

from repro.core.session import BuckarooSession
from repro.datasets import load_dataset
from repro.sampling import ErrorFirstSampler, histogram, minmax_decimate
from repro.snapshots.delta import DeltaSnapshot
from repro.zoom import DrillDownApp, LayerStack, Viewport, ZoomEngine, default_layers

CAT_COLS = ["primary_type", "location_description"]
X_COL, Y_COL = "x_coordinate", "y_coordinate"
SCALE = 0.1                # x 249,542 rows; three set-ups must fit the run budget
SMOKE_SCALE = 0.008
WALK_STEPS = 66            # six excursions
REMOVALS = 40
REFETCH_EVERY = 20
BASE_TILES = 64            # tiles on level 0, doubling per level: a view spans 8-9 tiles
CACHE_TILES = 24           # about three views' worth: tile hit rate a little over one half
SAMPLE_BUDGET = 2000
# The walk is this excursion over and over (only positions are random), so
# every round has the same mix of levels; a render follows each excursion.
EXCURSION = ("jump", "drill", "drill", "pan", "pan", "pan", "pan", "pan", "pan",
             "out", "out")
GOLDEN = 0.6180339887498949


class ZoomWorkload:
    clock = CPU_CLOCK
    gate = {"setup_s": "setup_s", "ops_per_s": "ops_per_s",
            "query_ms_p50": "fetch_ms_p50", "edit_ms_p50": "drill_edit_ms_p50"}
    entry_layer = {"fetch_ms_p50": "zoom", "fetch_ms_p90": "zoom",
                   "drill_edit_ms_p50": "zoom", "drill_edit_ms_p90": "zoom"}

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.scale = SMOKE_SCALE if smoke else SCALE
        self.generate_s = 0.0
        self.rows = 0

    # -- set-up ------------------------------------------------------------------

    def setup(self) -> None:
        """Dataset, detected session, ZoomEngine, DrillDownApp, warm tiles."""
        start = CPU_CLOCK()
        frame, truth = load_dataset("chicago_crime", scale=self.scale,
                                    seed=self.seed)
        self.generate_s = CPU_CLOCK() - start
        self.rows = frame.n_rows
        # injected errors in the charted attributes, as backend row ids
        self.truth_rows = {
            position + 1
            for entries in truth.cells.values()
            for position, column in entries if column in (X_COL, Y_COL)
        }
        self.session = BuckarooSession.from_frame(frame, backend="sql")
        self.session.generate_groups(cat_cols=CAT_COLS, num_cols=[X_COL, Y_COL])
        self.session.detect()
        self.inner = self.session.backend
        # where the user jumps to: x positions of actual rows (injected
        # outliers stretch the axis, so most of it is empty space)
        picks = np.random.default_rng(self.seed).integers(1, self.rows + 1, 256)
        self.data_x = [x for x in self.inner.values(X_COL, picks.tolist())
                       if isinstance(x, (int, float))]
        self.data_span = (percentile(self.data_x, 0.02),
                          percentile(self.data_x, 0.98))
        self.data_core = (percentile(self.data_x, 0.25),
                          percentile(self.data_x, 0.75))
        self.engine, self.app = self._navigators(self.inner)
        for level in range(3):
            self.engine.fetch(self.engine.full_view(), level)
        self.engine.invalidate()

    def _navigators(self, backend) -> tuple:
        engine = ZoomEngine(
            backend, X_COL, Y_COL,
            layers=LayerStack(default_layers(depth=3, max_points=2000)),
            cache_capacity=CACHE_TILES, base_tiles=BASE_TILES,
        )
        return engine, DrillDownApp(backend, CAT_COLS)

    def close(self) -> None:
        self.session.backend.db.close()

    def notes(self) -> list[str]:
        return [f"chicago_crime x{self.scale} = {self.rows} rows x 17, sql "
                f"backend :memory:, 1 closed-loop user, {WALK_STEPS} walk "
                f"steps + {REMOVALS} removals per round, tile cache "
                f"{CACHE_TILES} of {BASE_TILES * 7} tiles"]

    @staticmethod
    def spans(phase: Phase) -> list:
        return phase.tracer.spans

    # -- the measured script -------------------------------------------------------

    def measure(self, seconds: float, traced: bool) -> Phase:
        tracer = Tracer(CPU_CLOCK) if traced else None
        phase = Phase(ops=OpLog(CPU_CLOCK, tracer))
        if tracer is None:
            engine, app = self.engine, self.app
        else:
            phase.last["sql_seen"] = trace_database(self.inner.db, tracer)
            engine, app = self._navigators(self.inner)
            engine.backend = app.backend = TracedBackend(self.inner, tracer)
            tracer.wrap(engine, "fetch", "zoom.fetch")
            for method in ("current_view", "drill_into", "roll_up",
                           "visible_row_ids", "remove_row"):
                tracer.wrap(app, method, "zoom." + method)
        sampler = ErrorFirstSampler(budget=SAMPLE_BUDGET, seed=self.seed)
        if tracer is not None:
            tracer.wrap(sampler, "sample_groups", "sampling.sample_groups")
        low, high = self.data_span
        state = {
            "phase": float(np.random.default_rng(self.seed).random()),
            "steps": 0, "sampler": sampler, "level": 0,
            "view": self._centered(engine.full_view(), median(self.data_x),
                                   high - low),
        }
        engine.invalidate()
        queries_before = engine.queries_run + app.queries_run
        try:
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                start = CPU_CLOCK()
                self._walk(phase, engine, state)
                removed = self._drill_edits(phase, engine, app, state)
                phase.timed_s += CPU_CLOCK() - start
                phase.rounds += 1
                self.inner.apply_delta(DeltaSnapshot(inserted=removed))
                if phase.rounds == 1:
                    # the walk goes on, so only the first round's counts
                    # repeat exactly from run to run
                    phase.last["first_round"] = dict(
                        phase.counters,
                        queries_run=(engine.queries_run + app.queries_run
                                     - queries_before))
        finally:
            untrace_database(self.inner.db)
        return phase

    def _fetch(self, phase: Phase, fn, *args):
        """One viewport fetch; a fetch served wholly from cached tiles is
        counted as an operation but kept out of the fetch latencies."""
        result = phase.ops.run("fetch", fn, *args)
        if result is None:
            return None
        region = result[-1] if isinstance(result, tuple) else result
        counters = phase.counters
        counters["tiles_fetched"] += region.tiles_fetched
        counters["tiles_cached"] += region.tiles_cached
        if region.tiles_fetched:
            counters["rows_fetched"] += region.row_count
        else:
            phase.ops.relabel("fetch", "fetch_hit")
        return result

    def _walk(self, phase: Phase, engine: ZoomEngine, state: dict) -> None:
        """Phase A: ``WALK_STEPS`` more steps of the walk kept in ``state``."""
        ops, tracer = phase.ops, phase.tracer
        call = tracer.call if tracer is not None else untraced_call
        sampler = state["sampler"]
        groups = list(self.session.group_manager.groups.values())
        bounds = engine.full_view()
        view, level = state["view"], state["level"]

        def render():
            sample = sampler.sample_groups(groups, self.session.engine.index)
            xs = engine.backend.values(X_COL, sample.row_ids)
            ys = engine.backend.values(Y_COL, sample.row_ids)
            mask = [row_id in sample.anomalous for row_id in sample.row_ids]
            call("sampling.histogram", histogram, xs, 32, mask)
            numeric = [(x, y) for x, y in zip(xs, ys)
                       if isinstance(x, (int, float)) and isinstance(y, (int, float))]
            call("sampling.minmax_decimate", minmax_decimate,
                 [x for x, _ in numeric], [y for _, y in numeric], 200)
            return sample

        for step in range(WALK_STEPS):
            action = EXCURSION[step % len(EXCURSION)]
            excursion = state["steps"] // len(EXCURSION)
            state["steps"] += 1
            # positions follow additive-recurrence (low-discrepancy) sequences
            # whose phase comes from the seed: they cover the dense core of
            # the data evenly, so runs on different seeds do like work
            spot = (state["phase"] + excursion * GOLDEN) % 1.0
            side = 1 if excursion % 2 else -1    # pans of one excursion agree
            if action == "jump":
                low, high = self.data_core
                view = self._centered(bounds, low + spot * (high - low), view.width)
                self._fetch(phase, engine.fetch, view, level)
            elif action == "drill":
                center = view.x0 + view.width * (0.25 + spot / 2)
                moved = self._fetch(phase, engine.drill_down, view, level, center)
                if moved is not None:
                    view, level, _region = moved
            elif action == "out":
                level -= 1
                view = self._centered(bounds, (view.x0 + view.x1) / 2,
                                      view.width * 2)
                self._fetch(phase, engine.fetch, view, level)
            else:
                moved = self._fetch(phase, engine.pan, view, level, 0.25 * side)
                if moved is not None:
                    view, _region = moved
            if (step + 1) % len(EXCURSION) == 0:
                sample = ops.run("render", render)
                if sample is not None:
                    phase.counters["sample_size"] = sample.size
                    recall = sample.error_recall(self.truth_rows)
                    phase.counters["error_recall"] = recall
                    ops.check(recall == 1.0, f"error-first sample lost known-bad "
                                             f"rows: recall {recall:.4f}")
        state["view"], state["level"] = view, level

    @staticmethod
    def _centered(bounds: Viewport, center: float, width: float) -> Viewport:
        return Viewport(center - width / 2, center + width / 2).clamp_to(bounds)

    def _drill_edits(self, phase: Phase, engine: ZoomEngine,
                     app: DrillDownApp, state: dict) -> dict:
        """Phase B; returns the removed rows so the caller can put them back."""
        ops = phase.ops
        removed: dict = {}
        top = ops.run("drill_view", app.current_view)
        chart = ops.run("drill_view", app.drill_into, top.bars[0][0])
        victims = ops.run("visible_rows", app.visible_row_ids, REMOVALS)
        view, level = state["view"], state["level"]
        for count, row_id in enumerate(victims, start=1):
            row = self.inner.row(row_id)
            bar = row[CAT_COLS[1]]
            before = dict(chart.bars)[bar]
            outcome = ops.run("drill_edit", app.remove_row, row_id)
            if outcome is None:
                continue
            removed[row_id] = row
            chart = outcome[0]
            ops.check(dict(chart.bars).get(bar, 0) == before - 1,
                      f"remove_row({row_id}) did not lower bar {bar!r} by one")
            if count % REFETCH_EVERY == 0:
                engine.invalidate()
                self._fetch(phase, engine.fetch, view, level)
        ops.run("drill_view", app.roll_up)
        return removed

    # -- correctness ---------------------------------------------------------------

    def verify(self, phase: Phase) -> None:
        """After the last restore the table is whole again, and the deepest
        layer's full view returns exactly the rows with a numeric x."""
        ops = phase.ops
        ops.check(self.inner.row_count() == self.rows,
                  f"restore left {self.inner.row_count()} of {self.rows} rows")
        self.engine.invalidate()
        points = self.engine.fetch(self.engine.full_view(), 2).row_count
        numeric = self.inner.numeric_stats(X_COL).count
        ops.check(points == numeric,
                  f"level-2 full view holds {points} rows, numeric x has {numeric}")

    # -- metrics ---------------------------------------------------------------------

    def e2e_metrics(self, phase: Phase, setup_s: float) -> dict:
        ops = phase.ops
        return {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (phase.ops_per_s, "1/s"),
            "fetch_ms_p50": (ops.p("fetch", 0.5), "ms"),
            "fetch_ms_p90": (ops.p("fetch", 0.9), "ms"),
            "drill_edit_ms_p50": (ops.p("drill_edit", 0.5), "ms"),
            "drill_edit_ms_p90": (ops.p("drill_edit", 0.9), "ms"),
        }

    def layer_metrics(self, phase: Phase) -> dict:
        """Per-layer numbers of the traced phase, per round (rounds repeat)."""
        tracer, counters, rounds = phase.tracer, phase.counters, phase.rounds
        fetched, cached = counters["tiles_fetched"], counters["tiles_cached"]
        first = phase.last["first_round"]
        metrics = {
            "datasets.generate_s": self.generate_s,
            "zoom.tiles_fetched": first["tiles_fetched"],
            "zoom.tiles_cached": first["tiles_cached"],
            "zoom.tile_hit_rate": ratio(cached, fetched + cached),
            "zoom.queries_run": first["queries_run"],
            "zoom.rows_per_fetch": ratio(counters["rows_fetched"],
                                         phase.ops.n("fetch")),
            "zoom.drill_view_ms_p50": phase.ops.p("drill_view", 0.5),
            "sampling.error_first_ms_p50": ms(median(
                tracer.durations("sampling.sample_groups"))),
            "sampling.sample_size": counters["sample_size"],
            "sampling.error_recall": counters["error_recall"],
        }
        metrics.update(storage_metrics(
            tracer.spans, rounds, self.inner.db, phase.last["sql_seen"]))
        return metrics
