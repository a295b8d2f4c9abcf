"""``wrangle_sql`` / ``wrangle_frame``: the paper's Fig. 1 / Table 1 loop.

One user on a StackOverflow-shaped survey.  A *round* is the fixed script

    first_chart   upload -> generate_groups -> detect -> summary response
    8 episodes    request_suggestions(limit 5) on one of the worst groups ->
                  preview_repair -> apply_repair -> undo -> redo (JSON through
                  BuckarooServer.handle_request), then 10 Table-1 edits
                  (5 single-row removals, 5 cell imputes via session.apply),
                  every other edit undone

run closed-loop on a fresh session, and rounds repeat until the clock runs
out, so every round does identical work.  The two workloads differ only in
the storage backend: ``core.*`` does the same work on both, ``minidb`` and
``backends.sql_backend`` only on ``wrangle_sql``.
"""

from __future__ import annotations

import itertools
import json
import time
import zlib
from collections import defaultdict

import numpy as np

from e2e_common import CPU_CLOCK, OpLog, Phase, median, ratio
from e2e_trace import TracedBackend, Tracer, storage_metrics, trace_database

from repro.backends import make_backend
from repro.bench.workload import impute_plan, removal_plan
from repro.core.session import BuckarooSession
from repro.core.types import GroupKey
from repro.datasets import load_dataset
from repro.errors import BuckarooError
from repro.ui import protocol
from repro.ui.app import BuckarooApp
from repro.ui.server import BuckarooServer

CAT_COLS = ["country", "ed_level", "remote_work"]
NUM_COLS = ["converted_comp_yearly", "years_code"]
SCALE = 0.1                # x 38,091 rows; sized so a 12 s run holds two frame rounds
SMOKE_SCALE = 0.015
EPISODES_PER_ROUND = 8
EDITS_PER_EPISODE = 10
# The groups the user repairs, in order: the eight largest chart groups,
# which head the summary panel's worst-group list on every seed.  Fixed keys
# keep the work alike from seed to seed: every plan for every error code
# present is scored, so "the worst group now" costs 90 or 400 ms on SQL
# depending on which group the draw puts on top.
TARGETS = (
    ("remote_work", "hybrid", "converted_comp_yearly"),
    ("ed_level", "BS", "years_code"),
    ("remote_work", "remote", "converted_comp_yearly"),
    ("remote_work", "hybrid", "years_code"),
    ("ed_level", "BS", "converted_comp_yearly"),
    ("remote_work", "remote", "years_code"),
    ("remote_work", "in-person", "converted_comp_yearly"),
    ("ed_level", "MS", "converted_comp_yearly"),
)
CHECK_EPISODES = 2         # replayed on the other backend for the parity check


class _Session:
    """One uploaded dataset with its app, server and (optional) tracing."""

    def __init__(self, frame, kind: str, ops: OpLog, counters: dict):
        self.counters = counters
        tracer = ops.tracer
        self.sql_seen: dict = {}
        if tracer is None:
            self.inner = make_backend(frame, kind)
            self.session = session = BuckarooSession(self.inner)
        else:
            self.inner = tracer.call("backends.upload", make_backend, frame, kind)
            self.session = session = BuckarooSession(
                TracedBackend(self.inner, tracer))
            self._install(tracer, session)
        session.generate_groups(cat_cols=CAT_COLS, num_cols=NUM_COLS)
        session.detect()
        self.server = BuckarooServer(BuckarooApp(session))
        if tracer is not None:
            tracer.wrap(self.server, "handle_request", "ui.handle_request")
        self.send({"type": "summary", "limit": 10})

    def _install(self, tracer: Tracer, session: BuckarooSession) -> None:
        wrap = tracer.wrap
        wrap(session.group_manager, "generate", "core.groups.generate")
        wrap(session.group_manager, "refresh", "core.groups.refresh")
        wrap(session.group_manager, "discover_new_categories",
             "core.groups.discover_new_categories")
        wrap(session.engine, "detect_all", "core.engine.detect_all")
        wrap(session.engine, "detect_groups", "core.engine.detect_groups")
        wrap(session.suggestion_engine, "suggest", "core.suggestions.suggest")
        wrap(session, "speculate", "core.session.speculate")
        for method in ("apply", "undo", "redo", "preview"):
            wrap(session, method, "core.session." + method)
        wrap(session.snapshot_store, "record", "snapshots.record")
        if self.inner.kind == "sql":
            self.sql_seen = trace_database(self.inner.db, tracer)

    # -- the JSON client -------------------------------------------------------

    def send(self, message: dict) -> dict:
        """One round trip through the protocol server; raises on ``ok: false``."""
        text = self.server.handle_request(json.dumps(message))
        self.counters["ui.requests"] += 1
        self.counters["ui.response_bytes"] += len(text)
        reply = json.loads(text)
        if not reply["ok"]:
            raise BuckarooError(f"{reply['type']}: {reply['error']['message']}")
        payload = reply["payload"]
        if isinstance(payload, dict) and "backend_seconds" in payload:
            self.account(payload["backend_seconds"], payload["replot_seconds"])
        return reply

    def account(self, backend_seconds: float, replot_seconds: float) -> None:
        """Add up what ``ApplyResult`` says an apply/undo/redo spent where."""
        self.counters["backend_s"] += backend_seconds
        self.counters["replot_s"] += replot_seconds

    # -- state probes (benchmark-side, never traced) ---------------------------

    def fingerprint(self, key) -> tuple:
        """Row count plus a checksum of the charted cells of one group (read
        from the group manager and row storage, so no SQL statement is issued)."""
        group = self.session.group_manager.groups.get(key)
        rows = sorted(group.row_ids) if group is not None else []
        cells = self.inner.values(key.numerical, rows)
        return (self.inner.row_count(), len(rows),
                zlib.crc32(repr(cells).encode()))

    def totals(self) -> tuple:
        return (self.session.engine.index.total(), self.inner.row_count())

    def is_live(self, row_id: int) -> bool:
        try:
            self.inner.row(row_id)
            return True
        except BuckarooError:
            return False


class WrangleWorkload:
    """``wrangle_sql`` (kind ``sql``) and ``wrangle_frame`` (kind ``frame``)."""

    clock = CPU_CLOCK
    # gated metric of BENCHMARK.json -> the operation metric that feeds it
    gate = {"setup_s": "setup_s", "ops_per_s": "ops_per_s",
            "query_ms_p50": "suggest_ms_p50", "edit_ms_p50": "edit_ms_p50"}
    # operation metric -> the layer its call enters (for the per-layer record)
    entry_layer = {
        "suggest_ms_p50": "ui", "preview_ms_p50": "ui", "apply_ms_p50": "ui",
        "undo_ms_p50": "ui", "first_chart_s": "core.session",
        "edit_ms_p50": "core.session", "edit_ms_p90": "core.session",
    }

    def __init__(self, kind: str, seed: int, smoke: bool):
        self.kind = kind
        self.seed = seed
        self.scale = SMOKE_SCALE if smoke else SCALE
        self.episodes = CHECK_EPISODES if smoke else EPISODES_PER_ROUND
        self.frame = None
        self.frame_rows = 0
        self.generate_s = 0.0

    # -- set-up ------------------------------------------------------------------

    def setup(self) -> None:
        """Generate the dataset and warm every code path up to the first chart."""
        start = CPU_CLOCK()
        self.frame, _truth = load_dataset(
            "stackoverflow", scale=self.scale, seed=self.seed)
        self.generate_s = CPU_CLOCK() - start
        self.frame_rows = self.frame.n_rows
        _Session(self.frame, self.kind, OpLog(CPU_CLOCK), defaultdict(float))

    def close(self) -> None:
        self.frame = None

    def notes(self) -> list[str]:
        return [f"stackoverflow x{self.scale} = {self.frame_rows} rows x 21, "
                f"{self.kind} backend, 1 closed-loop user, "
                f"{self.episodes} episodes per round"]

    @staticmethod
    def spans(phase: Phase) -> list:
        return phase.tracer.spans

    # -- the measured script -------------------------------------------------------

    def measure(self, seconds: float, traced: bool) -> Phase:
        tracer = Tracer(CPU_CLOCK) if traced else None
        phase = Phase(ops=OpLog(CPU_CLOCK, tracer))
        deadline = time.perf_counter() + seconds
        start = CPU_CLOCK()
        while True:
            self._round(phase, self.kind, self.episodes)
            phase.rounds += 1
            phase.timed_s = CPU_CLOCK() - start
            if time.perf_counter() >= deadline:
                return phase

    def _round(self, phase: Phase, kind: str, episodes: int) -> None:
        """One fixed script on a fresh session."""
        ops = phase.ops
        counters = phase.counters
        live = ops.run("first_chart", _Session, self.frame, kind, ops, counters)
        if live is None:
            return
        session = live.session
        engine = session.engine

        def mutate(op_kind: str, fn, *args):
            """An apply-shaped op; counts the groups it made the engine re-detect."""
            before = engine.detections_run
            result = ops.run(op_kind, fn, *args)
            counters["redetected"] += engine.detections_run - before
            counters["applies"] += 1
            return result

        # rows to edit: anomalous rows first (what a user would click on),
        # in a seeded order, then the rest
        dirty = sorted(engine.index.rows_with_errors())
        np.random.default_rng(self.seed).shuffle(dirty)
        dirty_set = set(dirty)
        clean = (r for r in live.inner.all_row_ids() if r not in dirty_set)
        edit_rows = itertools.chain(dirty, clean)
        totals = []
        for episode in range(episodes):
            key = self._target(session, episode)
            before = live.fingerprint(key)
            ops.run("suggest", live.send, {
                "type": "request_suggestions",
                "key": protocol.encode_group_key(key), "limit": 5,
            })
            ops.run("preview", live.send, {"type": "preview_repair", "rank": 1})
            ops.check(live.fingerprint(key) == before,
                      f"preview left a change behind in {key.describe()}")
            mutate("apply", live.send, {"type": "apply_repair", "rank": 1})
            mutate("undo", live.send, {"type": "undo"})
            ops.check(live.fingerprint(key) == before,
                      f"undo did not restore {key.describe()}")
            mutate("redo", live.send, {"type": "redo"})
            for edit in range(EDITS_PER_EPISODE):
                row_id = next(r for r in edit_rows if live.is_live(r))
                result = mutate("edit", self._edit, live, edit, row_id)
                if result is not None:
                    live.account(result.backend_seconds, result.replot_seconds)
                if edit % 4 in (1, 2):      # every other edit is taken back
                    mutate("edit_undo", session.undo)
            totals.append(live.totals())
        counters["groups"] = len(session.groups())
        counters["delta_bytes"] += session.snapshot_store.total_bytes()
        counters["deltas"] += len(session.snapshot_store)
        phase.last = {"totals": totals, "live": live}

    @staticmethod
    def _target(session: BuckarooSession, episode: int) -> GroupKey:
        """This episode's group: the next target that still has anomalies
        (at full size that is always ``TARGETS[episode]``)."""
        for offset in range(len(TARGETS)):
            key = GroupKey(*TARGETS[(episode + offset) % len(TARGETS)])
            if session.anomalies(key):
                return key
        raise BuckarooError("none of the target groups has an anomaly left")

    @staticmethod
    def _edit(live: _Session, edit: int, row_id: int):
        """A Table-1 edit: even = remove a data point, odd = impute the mean."""
        if edit % 2 == 0:
            plan = removal_plan(row_id)
        else:
            plan = impute_plan(live.session, NUM_COLS[0], row_id)
        return live.session.apply(plan)

    # -- correctness ---------------------------------------------------------------

    def verify(self, phase: Phase) -> None:
        """The same script on the other backend must reach the same state."""
        other = "frame" if self.kind == "sql" else "sql"
        replay = Phase(ops=OpLog(CPU_CLOCK))
        self._round(replay, other, CHECK_EPISODES)
        phase.ops.problems.extend(replay.ops.problems)
        mine = phase.last["totals"][CHECK_EPISODES - 1]
        theirs = replay.last["totals"][-1]
        phase.ops.check(
            mine == theirs,
            f"after {CHECK_EPISODES} episodes {self.kind} holds (anomalies, "
            f"rows)={mine} but {other} holds {theirs}",
        )

    # -- metrics ---------------------------------------------------------------------

    def e2e_metrics(self, phase: Phase, setup_s: float) -> dict:
        ops = phase.ops
        return {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (phase.ops_per_s, "1/s"),
            "first_chart_s": (median(ops.latencies["first_chart"]), "s"),
            "suggest_ms_p50": (ops.p("suggest", 0.5), "ms"),
            "preview_ms_p50": (ops.p("preview", 0.5), "ms"),
            "apply_ms_p50": (ops.p("apply", 0.5), "ms"),
            "edit_ms_p50": (ops.p("edit", 0.5), "ms"),
            "edit_ms_p90": (ops.p("edit", 0.9), "ms"),
            "undo_ms_p50": (ops.pooled(("undo", "redo"), 0.5), "ms"),
        }

    def layer_metrics(self, phase: Phase) -> dict:
        """Per-layer numbers of the traced phase, per round (rounds repeat)."""
        tracer, counters, rounds = phase.tracer, phase.counters, phase.rounds

        def per_round(value: float) -> float:
            return value / rounds

        def seconds(name: str) -> float:
            return per_round(sum(tracer.durations(name)))

        speculate = tracer.durations("core.session.speculate")
        refresh = tracer.durations("core.groups.refresh")
        redetect = tracer.durations(
            "core.engine.detect_groups", not_under="core.engine.detect_all")
        metrics = {
            "datasets.generate_s": self.generate_s,
            "backends.upload_s": seconds("backends.upload"),
            "core.groups.generate_s": seconds("core.groups.generate"),
            "core.engine.detect_all_s": seconds("core.engine.detect_all"),
            "core.suggestions.suggest_s": seconds("core.suggestions.suggest"),
            "core.suggestions.plans_scored": per_round(len(speculate)),
            "core.suggestions.speculate_s": per_round(sum(speculate)),
            "core.engine.detect_groups_s": per_round(sum(redetect)),
            "core.engine.groups_redetected": per_round(counters["redetected"]),
            "core.engine.redetect_ratio": ratio(
                counters["redetected"], counters["applies"] * counters["groups"]),
            "core.groups.refresh_calls": per_round(len(refresh)),
            "core.groups.refresh_s": per_round(sum(refresh)),
            "core.session.backend_s": per_round(counters["backend_s"]),
            "core.session.replot_s": per_round(counters["replot_s"]),
            "snapshots.delta_bytes": per_round(counters["delta_bytes"]),
            "snapshots.bytes_per_edit": ratio(
                counters["delta_bytes"], counters["deltas"]),
            "ui.requests": per_round(counters["ui.requests"]),
            "ui.self_s": per_round(tracer.self_seconds("ui.handle_request")),
            "ui.response_bytes": per_round(counters["ui.response_bytes"]),
        }
        live = phase.last["live"]
        db = live.inner.db if live.sql_seen else None
        metrics.update(storage_metrics(tracer.spans, rounds, db, live.sql_seen))
        return metrics
