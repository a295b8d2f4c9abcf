"""Wrangling / repair functions (§3.2, Fig 2 ④).

A wrangler turns a group's anomalies into a :class:`RepairPlan` of primitive
ops (delete rows / set cells).  Built-ins cover the repairs the paper's UI
offers — deletion, imputation (mean/median/mode/constant), type conversion,
outlier clipping, and small-group merging.  Custom wranglers are registered
per error code through :class:`WranglerRegistry`.
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod
from typing import Callable, Optional, Sequence

import numpy as np

from repro.backends.base import Backend
from repro.config import BuckarooConfig
from repro.core.types import (
    ERROR_MISSING,
    ERROR_OUTLIER,
    ERROR_SMALL_GROUP,
    ERROR_TYPE_MISMATCH,
    OP_DELETE_ROWS,
    OP_SET_CELLS,
    Anomaly,
    Group,
    PlanOp,
    RepairPlan,
)
from repro.errors import WranglerError
from repro.frame.parsing import coerce_to_number

ANY_ERROR = "*"
"""Wranglers registered under this code apply to every error type."""


def outlier_bounds(ctx: "WranglingContext", group: Group) -> tuple[float, float] | None:
    """The detection thresholds for ``group`` under the current config.

    Uses the same (pinned) statistics as the outlier detector, and is
    recorded into repair plans so exported scripts can re-derive the same
    outlier rows by condition instead of by hard-coded row ids.
    """
    key = group.key
    if ctx.config.outlier_scope == "group":
        stats = ctx.backend.numeric_stats(key.numerical, key.categorical, key.category)
    else:
        stats = ctx.pinned_global_stats(key.numerical)
    if not stats.has_spread:
        return None
    sigma = ctx.config.outlier_sigma
    return (stats.mean - sigma * stats.std, stats.mean + sigma * stats.std)


class WranglingContext:
    """What a wrangler may see while planning a repair.

    ``stats_provider`` (when wired by the session) exposes the detection
    engine's *pinned* global statistics, so repair thresholds match the
    thresholds that flagged the anomalies — otherwise a clip/delete could
    target rows detection never marked (and exported scripts would diverge).

    The session's long-lived context reads afresh every time.  A context
    from :meth:`per_call` (one per ``suggest``/``infer`` call) reads each
    group's numbers once, so the mean, median and mode wranglers of every
    error code share one read; it must not outlive the call, or it would
    read numbers a later apply has changed.
    """

    def __init__(self, backend: Backend, config: BuckarooConfig,
                 stats_provider=None):
        self.backend = backend
        self.config = config
        self._stats_provider = stats_provider
        self._numbers: Optional[dict] = None  # per-call memo, see per_call

    def per_call(self) -> "WranglingContext":
        """A fresh context sharing this one's backend, config and stats
        provider that reads each group's numbers at most once."""
        ctx = WranglingContext(self.backend, self.config, self._stats_provider)
        ctx._numbers = {}
        return ctx

    def pinned_global_stats(self, num_col: str):
        """Global stats as the detector saw them (falls back to fresh)."""
        if self._stats_provider is not None:
            return self._stats_provider(num_col)
        return self.backend.numeric_stats(num_col)

    def group_numeric_values(self, group: Group,
                             exclude_rows: Optional[set] = None) -> np.ndarray:
        """The group's parseable numeric values (optionally excluding rows)."""
        row_ids, numbers = self._group_numbers(group)
        if exclude_rows:
            numbers = numbers[~np.isin(row_ids, list(exclude_rows))]
        return numbers

    def _group_numbers(self, group: Group) -> tuple[np.ndarray, np.ndarray]:
        """``(row ids, numbers)`` of the group's parseable numeric cells."""
        memo = self._numbers
        if memo is not None and group.key in memo:
            return memo[group.key]
        raw = self.backend.values(group.key.numerical, group.row_ids)
        parsed = [(row_id, number)
                  for row_id, number in zip(group.row_ids, map(coerce_to_number, raw))
                  if number is not None]
        pairs = (np.array([row_id for row_id, _ in parsed], dtype=np.int64),
                 np.array([number for _, number in parsed], dtype=np.float64))
        if memo is not None:
            memo[group.key] = pairs
        return pairs


class Wrangler(ABC):
    """One repair strategy: metadata plus a planning routine."""

    code: str = ""
    label: str = ""
    repairs: tuple = (ANY_ERROR,)

    def handles(self, error_code: str) -> bool:
        """True when this wrangler can repair ``error_code`` anomalies."""
        return ANY_ERROR in self.repairs or error_code in self.repairs

    @abstractmethod
    def plan(self, ctx: WranglingContext, group: Group,
             anomalies: Sequence[Anomaly]) -> RepairPlan:
        """Build the repair plan for ``anomalies`` within ``group``."""

    def _base_plan(self, group: Group, anomalies: Sequence[Anomaly],
                   description: str, **params) -> RepairPlan:
        error_codes = {a.error_code for a in anomalies}
        return RepairPlan(
            wrangler_code=self.code,
            group_key=group.key,
            error_code=next(iter(error_codes)) if len(error_codes) == 1 else None,
            ops=[],
            params=dict(params),
            description=description,
        )


class DeleteRowsWrangler(Wrangler):
    """Remove every anomalous row (the 'Remove' action of Figure 1)."""

    code = "delete_rows"
    label = "Delete anomalous rows"
    repairs = (ANY_ERROR,)

    def plan(self, ctx, group, anomalies):
        row_ids = tuple(sorted({a.row_id for a in anomalies}))
        plan = self._base_plan(
            group, anomalies,
            f"delete {len(row_ids)} anomalous rows from {group.key.describe()}",
        )
        if plan.error_code == ERROR_OUTLIER:
            bounds = outlier_bounds(ctx, group)
            if bounds is not None:
                plan.params["low"], plan.params["high"] = bounds
        plan.ops.append(PlanOp(OP_DELETE_ROWS, row_ids))
        return plan


class _ImputeBase(Wrangler):
    """Shared machinery for statistics-based imputation."""

    repairs = (ERROR_MISSING, ERROR_OUTLIER, ERROR_TYPE_MISMATCH)
    statistic = "mean"

    def __init__(self, scope: str = "group"):
        if scope not in ("group", "global"):
            raise WranglerError("imputation scope must be 'group' or 'global'")
        self.scope = scope

    def _compute(self, values: np.ndarray):
        if not len(values):
            return None
        if self.statistic == "mean":
            return float(np.mean(values))
        if self.statistic == "median":
            return float(np.median(values))
        # mode: most frequent value, ties to the smallest
        uniques, counts = np.unique(values, return_counts=True)
        return float(uniques[np.argmax(counts)])

    def plan(self, ctx, group, anomalies):
        target_rows = tuple(sorted({a.row_id for a in anomalies}))
        exclude = set(target_rows)
        values = ctx.group_numeric_values(group, exclude_rows=exclude)
        scope_used = self.scope
        if self.scope == "global" or not len(values):
            stats = ctx.backend.numeric_stats(group.key.numerical)
            fill = stats.mean if self.statistic == "mean" else None
            if fill is None or self.statistic != "mean":
                all_ids = ctx.backend.all_row_ids()
                raw = ctx.backend.values(group.key.numerical, all_ids)
                numbers = np.array(
                    [n for n in map(coerce_to_number, raw) if n is not None],
                    dtype=np.float64,
                )
                fill = self._compute(numbers)
            scope_used = "global"
        else:
            fill = self._compute(values)
        if fill is None:
            raise WranglerError(
                f"no numeric values available to impute {group.key.describe()}"
            )
        fill = round(fill, 6)
        plan = self._base_plan(
            group, anomalies,
            f"impute {len(target_rows)} cells in {group.key.describe()} "
            f"with the {scope_used} {self.statistic} ({fill:g})",
            statistic=self.statistic, scope=scope_used, fill=fill,
        )
        if plan.error_code == ERROR_OUTLIER:
            bounds = outlier_bounds(ctx, group)
            if bounds is not None:
                plan.params["low"], plan.params["high"] = bounds
        plan.ops.append(
            PlanOp(OP_SET_CELLS, target_rows, column=group.key.numerical, value=fill)
        )
        return plan


class ImputeMeanWrangler(_ImputeBase):
    """Replace anomalous cells with the group (or global) mean."""

    code = "impute_mean"
    label = "Impute with mean"
    statistic = "mean"


class ImputeMedianWrangler(_ImputeBase):
    """Replace anomalous cells with the group (or global) median."""

    code = "impute_median"
    label = "Impute with median"
    statistic = "median"


class ImputeModeWrangler(_ImputeBase):
    """Replace anomalous cells with the group's most frequent value."""

    code = "impute_mode"
    label = "Impute with mode"
    statistic = "mode"


class ImputeConstantWrangler(Wrangler):
    """Replace anomalous cells with a user-chosen constant."""

    code = "impute_constant"
    label = "Impute with constant"
    repairs = (ERROR_MISSING, ERROR_OUTLIER, ERROR_TYPE_MISMATCH)

    def __init__(self, value=0):
        self.value = value

    def plan(self, ctx, group, anomalies):
        target_rows = tuple(sorted({a.row_id for a in anomalies}))
        plan = self._base_plan(
            group, anomalies,
            f"set {len(target_rows)} cells in {group.key.describe()} to {self.value!r}",
            fill=self.value,
        )
        plan.ops.append(
            PlanOp(OP_SET_CELLS, target_rows, column=group.key.numerical,
                   value=self.value)
        )
        return plan


class ConvertTypeWrangler(Wrangler):
    """Repair type mismatches by lenient parsing ('12k' -> 12000).

    Unparseable values are handled per ``on_fail``: ``'null'`` (default)
    blanks the cell, ``'delete'`` removes the row, ``'keep'`` leaves it.
    """

    code = "convert_type"
    label = "Convert to number"
    repairs = (ERROR_TYPE_MISMATCH,)

    def __init__(self, on_fail: str = "null"):
        if on_fail not in ("null", "delete", "keep"):
            raise WranglerError("on_fail must be 'null', 'delete' or 'keep'")
        self.on_fail = on_fail

    def plan(self, ctx, group, anomalies):
        column = group.key.numerical
        convert_rows: list[int] = []
        converted: list[float] = []
        failed_rows: list[int] = []
        rows = [anomaly.row_id for anomaly in anomalies]
        for row_id, raw in zip(rows, ctx.backend.values(column, rows)):
            number = coerce_to_number(raw) if isinstance(raw, str) else None
            if number is not None:
                convert_rows.append(row_id)
                converted.append(number)
            else:
                failed_rows.append(row_id)
        plan = self._base_plan(
            group, anomalies,
            f"convert {len(convert_rows)} text values to numbers in "
            f"{group.key.describe()} ({self.on_fail} on failure)",
            on_fail=self.on_fail,
        )
        if convert_rows:
            plan.ops.append(
                PlanOp(OP_SET_CELLS, tuple(convert_rows), column=column,
                       values=tuple(converted))
            )
        if failed_rows and self.on_fail == "null":
            plan.ops.append(
                PlanOp(OP_SET_CELLS, tuple(failed_rows), column=column, value=None)
            )
        elif failed_rows and self.on_fail == "delete":
            plan.ops.append(PlanOp(OP_DELETE_ROWS, tuple(failed_rows)))
        return plan


class ClipOutliersWrangler(Wrangler):
    """Clip outliers to the detection threshold instead of removing them."""

    code = "clip_outliers"
    label = "Clip to threshold"
    repairs = (ERROR_OUTLIER,)

    def plan(self, ctx, group, anomalies):
        key = group.key
        bounds = outlier_bounds(ctx, group)
        if bounds is None:
            raise WranglerError("cannot clip without spread statistics")
        low, high = bounds
        rows: list[int] = []
        clipped: list[float] = []
        for anomaly in anomalies:
            number = coerce_to_number(anomaly.value)
            if number is None:
                continue
            rows.append(anomaly.row_id)
            clipped.append(round(min(max(number, low), high), 6))
        plan = self._base_plan(
            group, anomalies,
            f"clip {len(rows)} outliers in {group.key.describe()} to "
            f"[{low:.4g}, {high:.4g}]",
            low=round(low, 6), high=round(high, 6),
        )
        if rows:
            plan.ops.append(
                PlanOp(OP_SET_CELLS, tuple(rows), column=key.numerical,
                       values=tuple(clipped))
            )
        return plan


class MergeSmallGroupsWrangler(Wrangler):
    """Relabel an undersized group's categorical value (default 'Other')."""

    code = "merge_small_group"
    label = "Merge into catch-all category"
    repairs = (ERROR_SMALL_GROUP,)

    def __init__(self, target_category: str = "Other"):
        self.target_category = target_category

    def plan(self, ctx, group, anomalies):
        row_ids = tuple(sorted({a.row_id for a in anomalies}))
        plan = self._base_plan(
            group, anomalies,
            f"relabel {group.key.categorical}={group.key.category!r} "
            f"({len(row_ids)} rows) as {self.target_category!r}",
            target_category=self.target_category,
        )
        plan.ops.append(
            PlanOp(OP_SET_CELLS, row_ids, column=group.key.categorical,
                   value=self.target_category)
        )
        return plan


class FunctionWrangler(Wrangler):
    """Adapter for user-defined wrangler functions.

    The function receives ``(df, target_column, error_type_code, row_ids)``
    where ``df`` holds the group's rows (with ``_row_id``), and returns
    either ``{row_id: new_value}`` (cells to write) or a list of row ids to
    delete.
    """

    def __init__(self, code: str, fn: Callable, label: str = "",
                 repairs: tuple = (ANY_ERROR,)):
        self.code = code
        self.label = label or code
        self.repairs = tuple(repairs)
        self.fn = fn

    def plan(self, ctx, group, anomalies):
        from repro.core.detectors import _group_frame

        key = group.key
        row_ids = tuple(sorted({a.row_id for a in anomalies}))
        frame = _group_frame(ctx.backend, group)
        try:
            outcome = self.fn(
                df=frame, target_column=key.numerical,
                error_type_code=anomalies[0].error_code if anomalies else None,
                row_ids=list(row_ids),
            )
        except Exception as exc:
            raise WranglerError(f"custom wrangler {self.code!r} failed: {exc}") from exc
        plan = self._base_plan(
            group, anomalies,
            f"custom wrangler {self.code!r} on {len(row_ids)} rows "
            f"of {group.key.describe()}",
        )
        if outcome is None:
            return plan
        if isinstance(outcome, dict):
            rows = tuple(int(r) for r in outcome)
            values = tuple(outcome[r] for r in outcome)
            plan.ops.append(
                PlanOp(OP_SET_CELLS, rows, column=key.numerical, values=values)
            )
        else:
            plan.ops.append(
                PlanOp(OP_DELETE_ROWS, tuple(int(r) for r in outcome))
            )
        return plan


class WranglerRegistry:
    """All available wranglers, queryable by the error code to repair."""

    def __init__(self) -> None:
        self._wranglers: dict[str, Wrangler] = {}
        for wrangler in (
            DeleteRowsWrangler(),
            ImputeMeanWrangler(),
            ImputeMedianWrangler(),
            ImputeModeWrangler(),
            ConvertTypeWrangler(),
            ClipOutliersWrangler(),
            MergeSmallGroupsWrangler(),
        ):
            self._wranglers[wrangler.code] = wrangler

    def codes(self) -> list[str]:
        """All registered wrangler codes."""
        return list(self._wranglers)

    def get(self, code: str) -> Wrangler:
        """The wrangler registered under ``code``."""
        try:
            return self._wranglers[code]
        except KeyError:
            raise WranglerError(f"no wrangler registered under {code!r}") from None

    def for_error(self, error_code: str) -> list[Wrangler]:
        """Wranglers able to repair ``error_code``, in registration order."""
        return [w for w in self._wranglers.values() if w.handles(error_code)]

    def register(self, wrangler: Wrangler) -> None:
        """Add (or replace) a wrangler."""
        if not wrangler.code:
            raise WranglerError("wrangler must define a code")
        self._wranglers[wrangler.code] = wrangler

    def register_function(self, code: str, fn: Callable, label: str = "",
                          error_codes: tuple = (ANY_ERROR,)) -> Wrangler:
        """Register a custom wrangler function mapped to error codes (§3.2)."""
        wrangler = FunctionWrangler(code, fn, label, error_codes)
        self._wranglers[code] = wrangler
        return wrangler
