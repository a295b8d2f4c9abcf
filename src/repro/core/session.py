"""The :class:`BuckarooSession` — the library's main entry point.

A session wires together the full §2 architecture: a storage backend (SQL or
frame), group generation, the detection engine with its error index, the
overlap graph, wrangling suggestion/preview machinery, the write cache, the
differential snapshot store, and undo/redo history.

Typical use::

    from repro import BuckarooSession

    session = BuckarooSession.from_frame(df, backend="sql")
    session.generate_groups()
    session.detect()
    worst = session.anomaly_summary().groups[0].key
    suggestion = session.suggest(worst)[0]
    session.apply(suggestion)
    session.undo()
    print(session.export_script())
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.backends import Backend, make_backend
from repro.backends.base import DeltaView, ViewMiss
from repro.config import BuckarooConfig, DEFAULT_CONFIG
from repro.core.cache import WriteCache
from repro.core.detectors import DetectorRegistry
from repro.core.engine import DetectionEngine
from repro.core.groups import GroupManager
from repro.core.history import ActionRecord, HistoryLog
from repro.core.overlap import OverlapGraph
from repro.core.preview import (
    ChartSeries,
    PreviewResult,
    build_series,
    refresh_entries,
)
from repro.core.ranking import (
    ErrorTypeSummary,
    GroupRank,
    rank_error_types,
    rank_groups,
)
from repro.core.suggestions import SuggestionEngine
from repro.core.types import (
    OP_DELETE_ROWS,
    OP_SET_CELLS,
    ApplyResult,
    GroupKey,
    RepairPlan,
    RepairSuggestion,
)
from repro.core.wranglers import WranglerRegistry, WranglingContext
from repro.errors import BuckarooError
from repro.snapshots import DeltaSnapshot, DifferentialStore


@dataclass
class AnomalySummary:
    """The ranked summary panel: error types and worst groups."""

    total: int
    error_types: list = field(default_factory=list)  # [ErrorTypeSummary]
    groups: list = field(default_factory=list)       # [GroupRank]


@dataclass
class SpeculationResult:
    """Outcome of scoring a plan without keeping it."""

    plan: RepairPlan
    resolved: int
    introduced: int
    score: float
    affected_groups: list = field(default_factory=list)


class BuckarooSession:
    """One interactive wrangling session over one dataset."""

    def __init__(self, backend: Backend, config: Optional[BuckarooConfig] = None):
        self.backend = backend
        self.config = config or DEFAULT_CONFIG
        self.detectors = DetectorRegistry()
        self.wranglers = WranglerRegistry()
        self.group_manager = GroupManager(backend, self.config)
        self.overlap = OverlapGraph(self.group_manager)
        self.engine = DetectionEngine(backend, self.config, self.detectors)
        self.wrangling_ctx = WranglingContext(
            backend, self.config, stats_provider=self.engine.ctx.global_stats,
        )
        self.suggestion_engine = SuggestionEngine(self)
        self.history = HistoryLog()
        self.write_cache = WriteCache(backend, self.config.flush_interval)
        self.snapshot_store = DifferentialStore()
        self.chart_data: dict[tuple[str, str], ChartSeries] = {}
        self._view_listeners: list[Callable] = []

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_frame(cls, frame, backend: str = "sql",
                   config: Optional[BuckarooConfig] = None) -> "BuckarooSession":
        """Upload a DataFrame into a fresh session (Fig 2 ①)."""
        return cls(make_backend(frame, backend), config)

    @classmethod
    def from_csv(cls, path, backend: str = "sql",
                 config: Optional[BuckarooConfig] = None) -> "BuckarooSession":
        """Load a CSV file into a fresh session."""
        from repro.frame import read_csv

        return cls.from_frame(read_csv(path), backend, config)

    # -- setup -------------------------------------------------------------------

    def generate_groups(self, cat_cols: Optional[Sequence[str]] = None,
                        num_cols: Optional[Sequence[str]] = None) -> list[GroupKey]:
        """Generate groups (§2.1) and build initial chart series."""
        keys = self.group_manager.generate(cat_cols, num_cols)
        self._replot_full(self.group_manager.pairs)
        return keys

    def detect(self) -> AnomalySummary:
        """Run all detectors over all groups (full pass)."""
        self._require_groups()
        self.engine.detect_all(self.group_manager.groups.values())
        return self.anomaly_summary()

    # -- queries -----------------------------------------------------------------

    def pairs(self) -> list[tuple[str, str]]:
        """All chart pairs (categorical, numerical)."""
        return list(self.group_manager.pairs)

    def groups(self) -> list[GroupKey]:
        """All current group keys."""
        return self.group_manager.keys()

    def group(self, key: GroupKey):
        """The group object for ``key``."""
        return self.group_manager.group(key)

    def anomalies(self, key: Optional[GroupKey] = None):
        """Anomalies in one group, or all anomalies."""
        return self.engine.index.anomalies(key)

    def anomaly_summary(self, group_limit: Optional[int] = None) -> AnomalySummary:
        """The ranked anomaly summary panel (§2.2)."""
        index = self.engine.index
        return AnomalySummary(
            total=index.total(),
            error_types=rank_error_types(index, self.detectors),
            groups=rank_groups(index, self.detectors, group_limit),
        )

    def series(self, cat: str, num: str) -> ChartSeries:
        """Current render series for one chart pair."""
        series = self.chart_data.get((cat, num))
        if series is None:
            series = build_series(self.backend, self.group_manager, cat, num)
            self.chart_data[(cat, num)] = series
        return series

    # -- suggestion / preview -------------------------------------------------------

    def suggest(self, key: GroupKey, error_code: Optional[str] = None,
                limit: Optional[int] = None,
                score_plans: bool = True) -> list[RepairSuggestion]:
        """Ranked repair suggestions for a selected group (§3.2)."""
        return self.suggestion_engine.suggest(key, error_code, limit, score_plans)

    def preview(self, plan_or_suggestion) -> PreviewResult:
        """Before/after chart preview of a candidate repair (Figure 3)."""
        plan = self._plan_of(plan_or_suggestion)
        if plan.group_key is None:
            raise BuckarooError("previews require a plan bound to a group")
        cat, num = plan.group_key.pair
        before = build_series(self.backend, self.group_manager, cat, num)
        speculation = self._speculate(plan, capture_pair=(cat, num))
        return PreviewResult(
            plan=plan,
            before=before,
            after=speculation.after_series,
            resolved=speculation.resolved,
            introduced=speculation.introduced,
            score=speculation.score,
        )

    def speculate(self, plan: RepairPlan) -> SpeculationResult:
        """Measure ``plan``'s anomaly impact without keeping it (see ``_speculate``)."""
        outcome = self._speculate(plan, capture_pair=None)
        return SpeculationResult(
            plan=plan,
            resolved=outcome.resolved,
            introduced=outcome.introduced,
            score=outcome.score,
            affected_groups=outcome.affected,
        )

    # -- wrangling ---------------------------------------------------------------

    def apply(self, plan_or_suggestion) -> ApplyResult:
        """Apply a repair: mutate, locally re-detect, re-plot, record history."""
        plan = self._plan_of(plan_or_suggestion)
        backend_start = time.perf_counter()
        outcome = self._mutate_and_redetect(plan)
        backend_seconds = time.perf_counter() - backend_start

        replot_start = time.perf_counter()
        self._replot(outcome.affected)
        replot_seconds = time.perf_counter() - replot_start

        record = ActionRecord(
            seq=self.history.next_seq(),
            plan=plan,
            delta=outcome.delta,
            affected_groups=list(outcome.affected),
        )
        self.history.record(record)
        self.snapshot_store.record(outcome.delta)
        self.write_cache.notify_update()
        return ApplyResult(
            seq=record.seq,
            plan=plan,
            rows_affected=len(outcome.delta.row_ids()),
            affected_groups=list(outcome.affected),
            resolved=outcome.resolved,
            introduced=outcome.introduced,
            backend_seconds=backend_seconds,
            replot_seconds=replot_seconds,
        )

    def undo(self) -> ApplyResult:
        """Revert the most recent repair (§2.2 'Iterative editing')."""
        record = self.history.pop_undo()
        return self._apply_delta_action(record, record.delta.inverse(), "undo")

    def redo(self) -> ApplyResult:
        """Re-apply the most recently undone repair."""
        record = self.history.pop_redo()
        return self._apply_delta_action(record, record.delta, "redo")

    # -- extensibility ---------------------------------------------------------------

    def register_detector(self, code: str, fn: Callable, label: str = "",
                          color: str | None = None,
                          severity: float = 1.0) -> None:
        """Register a custom detector function under ``code`` (§3.1)."""
        from repro.core.types import CUSTOM_ERROR_COLOR

        self.detectors.register_function(
            code, fn, label, color or CUSTOM_ERROR_COLOR, severity,
        )

    def register_wrangler(self, code: str, fn: Callable, label: str = "",
                          error_codes: Sequence[str] = ("*",)) -> None:
        """Register a custom wrangler mapped to error codes (§3.2)."""
        self.wranglers.register_function(code, fn, label, tuple(error_codes))

    # -- views --------------------------------------------------------------------

    def add_view_listener(self, listener: Callable) -> None:
        """Subscribe to re-plot events; called with the affected pairs."""
        self._view_listeners.append(listener)

    # -- script generation ------------------------------------------------------------

    def export_script(self, target: str = "python") -> str:
        """Compile the applied actions into an executable script (§2.2)."""
        from repro.codegen import generate_script

        return generate_script(self.history.records(), target=target)

    # -- internals ----------------------------------------------------------------

    def _require_groups(self) -> None:
        if not self.group_manager.groups:
            self.generate_groups()

    @staticmethod
    def _plan_of(plan_or_suggestion) -> RepairPlan:
        if isinstance(plan_or_suggestion, RepairSuggestion):
            return plan_or_suggestion.plan
        if isinstance(plan_or_suggestion, RepairPlan):
            return plan_or_suggestion
        raise BuckarooError(
            f"expected a RepairPlan or RepairSuggestion, "
            f"got {type(plan_or_suggestion).__name__}"
        )

    def _execute_ops(self, plan: RepairPlan) -> DeltaSnapshot:
        """Execute a plan's ops atomically, in order; returns their net delta.

        Each op sees the table as the previous one left it, so the deltas
        compose: a row an earlier op updated and a later one deletes is
        recorded once, as deleted with its original cells.  If any op fails,
        everything already applied is rolled back through the accumulated
        delta, so a failing (e.g. custom) wrangler can never leave the table
        half-repaired.
        """
        delta = DeltaSnapshot()
        try:
            for op in plan.ops:
                if op.kind == OP_DELETE_ROWS:
                    produced = self.backend.delete_rows(op.row_ids)
                elif op.kind == OP_SET_CELLS:
                    produced = self.backend.set_cells(
                        op.column, op.row_ids, value=op.value, values=op.values,
                    )
                else:  # pragma: no cover - PlanOp validates kinds
                    raise BuckarooError(f"unknown op kind {op.kind!r}")
                delta = delta.compose(produced)
        except Exception:
            if not delta.is_empty:
                self.backend.apply_delta(delta.inverse())
            raise
        delta.label = plan.description
        return delta

    @dataclass
    class _MutationOutcome:
        delta: DeltaSnapshot
        affected: list
        resolved: int
        introduced: int
        after_series: Optional[ChartSeries] = None

        @property
        def score(self) -> float:
            return float(self.resolved) - float(self.introduced)

    def _mutate_and_redetect(self, plan: RepairPlan,
                             delta_override: Optional[DeltaSnapshot] = None,
                             commit: bool = True) -> "_MutationOutcome":
        """Shared core of apply/undo/redo and of speculation's fallback:
        write the plan (or ``delta_override``) into the backend, then
        re-detect locally (:meth:`_redetect`).  Write-free scoring is
        :meth:`_speculate`.
        """
        rows = plan.touched_rows if delta_override is None else delta_override.row_ids()
        holding = self.overlap.affected_groups(rows)

        if delta_override is None:
            delta = self._execute_ops(plan)
        else:
            self.backend.apply_delta(delta_override)
            delta = delta_override

        return self._redetect(delta, holding, commit=commit)

    def _redetect(self, delta: DeltaSnapshot, holding: set, ctx=None,
                  commit: bool = False) -> "_MutationOutcome":
        """Fold ``delta`` into group membership, re-detect (through ``ctx``)
        the groups it can change, and measure them against the error index,
        which only a committed outcome writes to.

        Re-detected are the groups whose membership the delta changed plus
        those in ``holding`` (the touched rows' groups) whose numerical
        attribute it wrote — exact only while every detector is ``local``;
        otherwise all of ``holding`` re-runs.
        """
        regrouped = self.group_manager.apply_delta(delta)
        if all(detector.local for detector in self.detectors.all()):
            written = {column for cells in delta.updated.values() for column in cells}
            holding = {key for key in holding if key.numerical in written}
        affected = sorted(holding | regrouped)

        # Global statistics stay *pinned* between full detection passes, so
        # localized re-detection (§3.3) judges every group against the same
        # thresholds; session.detect() recalibrates them.
        groups = self.group_manager.groups
        found = self.engine.detect_groups(
            [groups[key] for key in affected if key in groups], ctx)

        # Set difference, not count difference: a repair that swaps one
        # anomaly class for another (e.g. type conversion producing an
        # outlier) must surface as resolved=1, introduced=1 — the cascade
        # visibility the paper motivates in §1.
        index = self.engine.index
        resolved = introduced = 0
        for key in affected:
            was = {(a.row_id, a.error_code) for a in index.anomalies(key)}
            now = {(a.row_id, a.error_code) for a in found.get(key, ())}
            resolved += len(was - now)
            introduced += len(now - was)
        if commit:
            index.drop_rows(delta.deleted)
            for key in affected:
                index.replace_group(key, found.get(key, ()))
        return BuckarooSession._MutationOutcome(
            delta=delta,
            affected=affected,
            resolved=resolved,
            introduced=introduced,
        )

    def _speculate(self, plan: RepairPlan, capture_pair):
        """What ``plan`` would resolve and introduce, scored from its delta
        (``backend.plan_delta``) with detection reading a :class:`DeltaView`;
        only the group memberships are folded in and reverted.  Writing,
        re-detecting and rolling back instead serves previews (the chart
        needs written data), a detector that is not ``local``, a plan naming
        one row in two ops (the view sees final values only) and a
        :class:`ViewMiss` (group-scoped stats, a frame dtype widened past
        int64 -> float64)."""
        named = [set(op.row_ids) for op in plan.ops]
        if (capture_pair is None
                and all(detector.local for detector in self.detectors.all())
                and sum(map(len, named)) == len(set().union(*named))):
            delta = self.backend.plan_delta(plan.ops)
            holding = self.overlap.affected_groups(plan.touched_rows)
            ctx = self.engine.ctx.reading(DeltaView(self.backend, delta))
            try:
                return self._redetect(delta, holding, ctx)
            except ViewMiss:
                pass
            finally:
                self.group_manager.apply_delta(delta.inverse())
        outcome = self._mutate_and_redetect(plan, commit=False)
        if capture_pair is not None:
            outcome.after_series = build_series(
                self.backend, self.group_manager, *capture_pair
            )
        # roll back data and memberships; the error index was never written
        undo = outcome.delta.inverse()
        self.backend.apply_delta(undo)
        self.group_manager.apply_delta(undo)
        return outcome

    def _apply_delta_action(self, record: ActionRecord, delta: DeltaSnapshot,
                            label: str) -> ApplyResult:
        backend_start = time.perf_counter()
        outcome = self._mutate_and_redetect(record.plan, delta_override=delta)
        backend_seconds = time.perf_counter() - backend_start
        replot_start = time.perf_counter()
        self._replot(outcome.affected)
        replot_seconds = time.perf_counter() - replot_start
        return ApplyResult(
            seq=record.seq,
            plan=record.plan,
            rows_affected=len(delta.row_ids()),
            affected_groups=list(outcome.affected),
            resolved=outcome.resolved,
            introduced=outcome.introduced,
            backend_seconds=backend_seconds,
            replot_seconds=replot_seconds,
        )

    def _replot(self, affected_keys: Sequence[GroupKey]) -> None:
        """Incrementally refresh the marks of the affected groups.

        This is the "frontend re-plotting" half of the §6.2 latency
        measurement.  Only the affected groups' aggregates are recomputed —
        "when a data group is modified, only the affected rows ... are
        updated" (§3.2); untouched categories keep their marks.
        """
        by_pair: dict[tuple[str, str], list[GroupKey]] = {}
        for key in affected_keys:
            by_pair.setdefault(key.pair, []).append(key)
        for pair, keys in by_pair.items():
            series = self.chart_data.get(pair)
            if series is None:
                self.chart_data[pair] = build_series(
                    self.backend, self.group_manager, *pair
                )
            else:
                refresh_entries(series, self.backend, self.group_manager, keys)
        for listener in self._view_listeners:
            listener(list(by_pair))

    def _replot_full(self, pairs: Sequence[tuple[str, str]]) -> None:
        """Rebuild whole chart series (initial load / full detection)."""
        for cat, num in pairs:
            self.chart_data[(cat, num)] = build_series(
                self.backend, self.group_manager, cat, num
            )
        for listener in self._view_listeners:
            listener(list(pairs))
