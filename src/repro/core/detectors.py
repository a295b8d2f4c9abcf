"""Error detection (§3.1, Fig 2 ③).

Built-in detectors cover the paper's four error classes — missing values,
outliers, type mismatches, and group incompleteness.  Each detector works
through backend capability methods, which the SQL backend implements as SQL
queries ("built-in error detectors are implemented as SQL queries", §3.1)
and the frame backend as column scans.

Detection runs set-at-a-time.  :meth:`Detector.detect_many` answers a batch
of groups; its default loops over :meth:`Detector.detect`.  The missing,
mismatch and outlier built-ins override it and make no backend call scoped
to one group: one column-level candidate list per numerical column, one
``values(cat, rows)`` per (categorical, numerical) pair to bucket it by
category, one ``values(num, rows)`` per numerical column for anomaly
values — the reads a ``DeltaView`` serves.  Buckets keep the backend's row
order, so a batch answer equals the per-group one.

Custom detectors use the paper's exact signature::

    def custom_detector(df: DataFrame = None, target_column: str = "",
                        error_type_code: str = "") -> list: ...

returning anomalous row ids.  A detector function may instead declare a
``sql`` parameter to receive a query callable (the listing's
``sys.get_row_ids(query)`` pattern).
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod
from typing import Callable, Optional, Sequence

from repro.backends.base import Backend
from repro.config import BuckarooConfig
from repro.core.types import (
    BUILTIN_ERROR_TYPES,
    CUSTOM_ERROR_COLOR,
    ERROR_MISSING,
    ERROR_OUTLIER,
    ERROR_SMALL_GROUP,
    ERROR_TYPE_MISMATCH,
    Anomaly,
    ErrorType,
    Group,
    GroupKey,
    Stats,
)
from repro.errors import DetectorError, UnknownErrorCodeError
from repro.frame.parsing import parse_number_strict


class DetectionContext:
    """What a detector may see: the backend, config, and cached statistics."""

    def __init__(self, backend: Backend, config: BuckarooConfig):
        self.backend = backend
        self.config = config
        self._stats_cache: dict[str, Stats] = {}

    def global_stats(self, num_col: str) -> Stats:
        """Whole-column numeric stats, pinned until the next full detection.

        Pinning keeps outlier thresholds consistent across localized
        re-detections (§3.3): a micro-repair must not silently reclassify
        untouched groups.  ``BuckarooSession.detect()`` recalibrates.
        """
        stats = self._stats_cache.get(num_col)
        if stats is None:
            stats = self.backend.numeric_stats(num_col)
            self._stats_cache[num_col] = stats
        return stats

    def reading(self, backend: Backend) -> "DetectionContext":
        """A context over ``backend`` (e.g. a ``DeltaView``) sharing these
        pinned global stats."""
        ctx = DetectionContext(backend, self.config)
        ctx._stats_cache = self._stats_cache
        return ctx

    def group_stats(self, group: Group) -> Stats:
        """Numeric stats scoped to one group (not cached — groups churn)."""
        key = group.key
        return self.backend.numeric_stats(key.numerical, key.categorical, key.category)

    def invalidate_stats(self, columns: Optional[list[str]] = None) -> None:
        """Drop cached stats after data changes."""
        if columns is None:
            self._stats_cache.clear()
        else:
            for column in columns:
                self._stats_cache.pop(column, None)

    def sql(self, query: str, params: tuple = ()) -> list:
        """Run a row-id query (available on the SQL backend only)."""
        if not hasattr(self.backend, "db"):
            raise DetectorError(
                "SQL detector hooks require the SQL backend"
            )
        return self.backend.db.execute(query, params).scalars()


class Detector(ABC):
    """One error class: a code, display metadata, and a detection routine."""

    local = False
    """True when :meth:`detect` reads only the group's projected column, its
    membership and the pinned or group stats — so a repair that changes
    neither the group's members nor that column cannot change its result,
    and the session skips the group when re-detecting.  Off unless a class
    declares it: a detector reading other columns or the database stays
    correct, only less localized."""

    def __init__(self, error_type: ErrorType):
        self.error_type = error_type

    @property
    def code(self) -> str:
        """The error code anomalies from this detector carry."""
        return self.error_type.code

    @abstractmethod
    def detect(self, ctx: DetectionContext, group: Group) -> list[Anomaly]:
        """All anomalies of this class within ``group``."""

    def detect_many(self, ctx: DetectionContext,
                    groups: Sequence[Group]) -> dict[GroupKey, list[Anomaly]]:
        """``{key: anomalies}`` for every group in ``groups``."""
        return {group.key: self.detect(ctx, group) for group in groups}


class _ColumnDetector(Detector):
    """A built-in whose :meth:`detect` is the one-group batch."""

    local = True

    def detect(self, ctx: DetectionContext, group: Group) -> list[Anomaly]:
        return self.detect_many(ctx, [group])[group.key]


def _bucket(backend: Backend, groups: Sequence[Group],
            candidates: Callable[[str], list[int]]) -> dict[GroupKey, list[int]]:
    """Each group's share of ``candidates(num)``, in backend order.

    ``candidates`` runs once per numerical column; one ``values(cat, rows)``
    per (categorical, numerical) pair reads the candidates' categories.
    """
    found: dict[GroupKey, list[int]] = {group.key: [] for group in groups}
    by_pair: dict[tuple[str, str], dict] = {}
    for key, rows in found.items():
        by_pair.setdefault((key.categorical, key.numerical), {})[key.category] = rows
    fetched: dict[str, list[int]] = {}
    for (cat, num), buckets in by_pair.items():
        if num not in fetched:
            fetched[num] = candidates(num)
        rows = fetched[num]
        for row_id, category in zip(rows, backend.values(cat, rows) if rows else ()):
            if category in buckets:
                buckets[category].append(row_id)
    return found


def _cells(backend: Backend, found: dict[GroupKey, list[int]]) -> dict[str, dict]:
    """``{num: {row id: value}}`` over the rows of ``found``: one ``values``
    per numerical column."""
    rows: dict[str, set] = {}
    for key, ids in found.items():
        rows.setdefault(key.numerical, set()).update(ids)
    return {num: dict(zip(ids, backend.values(num, list(ids))))
            for num, ids in rows.items() if ids}


class MissingValueDetector(_ColumnDetector):
    """Flags NULL cells of the projected attribute (§3.1 'Missing Values')."""

    def __init__(self) -> None:
        super().__init__(BUILTIN_ERROR_TYPES[ERROR_MISSING])

    def detect_many(self, ctx: DetectionContext,
                    groups: Sequence[Group]) -> dict[GroupKey, list[Anomaly]]:
        return {
            key: [Anomaly(row_id, key.numerical, self.code, key, None, "null cell")
                  for row_id in rows]
            for key, rows in _bucket(ctx.backend, groups, ctx.backend.missing_row_ids).items()
        }


class OutlierDetector(_ColumnDetector):
    """Flags values beyond ``sigma`` standard deviations from the mean.

    The paper's default is global scope ("2 standard deviations from the
    global mean"); ``outlier_scope='group'`` switches to per-group
    statistics, which is how a value can be "an outlier in one group but not
    in another" (§1).  One tail scan per column with the narrowest interval
    (max of the lows, min of the highs) holds every group's outliers; each
    group keeps the rows strictly outside its own bounds.
    """

    def __init__(self) -> None:
        super().__init__(BUILTIN_ERROR_TYPES[ERROR_OUTLIER])

    def detect_many(self, ctx: DetectionContext,
                    groups: Sequence[Group]) -> dict[GroupKey, list[Anomaly]]:
        scope, sigma = ctx.config.outlier_scope, ctx.config.outlier_sigma
        bounds: dict[GroupKey, tuple[float, float]] = {}
        narrowest: dict[str, tuple[float, float]] = {}
        for group in groups:
            num = group.key.numerical
            stats = ctx.group_stats(group) if scope == "group" else ctx.global_stats(num)
            if stats.has_spread:
                low, high = bounds[group.key] = (stats.mean - sigma * stats.std,
                                                 stats.mean + sigma * stats.std)
                lows, highs = narrowest.get(num, (low, high))
                narrowest[num] = (max(lows, low), min(highs, high))
        found = _bucket(ctx.backend, groups, lambda num: (
            ctx.backend.out_of_range_row_ids(num, *narrowest[num]) if num in narrowest else []))
        for key in found:
            if key not in bounds:  # no spread: rows are another group's candidates
                found[key] = []
        cells = _cells(ctx.backend, found)
        for key, rows in found.items():
            if not rows:
                continue
            low, high = bounds[key]
            detail = f"outside [{low:.4g}, {high:.4g}] ({scope} scope)"
            # text the backend parsed as a number compares as that number
            found[key] = [
                Anomaly(row_id, key.numerical, self.code, key, value, detail)
                for row_id, value in zip(rows, map(cells[key.numerical].get, rows))
                if not low <= (parse_number_strict(value) if isinstance(value, str)
                               else value) <= high
            ]
        return found


class TypeMismatchDetector(_ColumnDetector):
    """Flags non-numeric entries in numeric columns (e.g. '12k')."""

    def __init__(self) -> None:
        super().__init__(BUILTIN_ERROR_TYPES[ERROR_TYPE_MISMATCH])

    def detect_many(self, ctx: DetectionContext,
                    groups: Sequence[Group]) -> dict[GroupKey, list[Anomaly]]:
        found = _bucket(ctx.backend, groups, ctx.backend.mismatch_row_ids)
        cells = _cells(ctx.backend, found)
        for key, rows in found.items():
            if rows:
                found[key] = [
                    Anomaly(row_id, key.numerical, self.code, key, value,
                            f"non-numeric value {value!r}")
                    for row_id, value in zip(rows, map(cells[key.numerical].get, rows))
                ]
        return found


class SmallGroupDetector(Detector):
    """Flags groups with cardinality below ``min_group_size`` (§3.1)."""

    local = True

    def __init__(self) -> None:
        super().__init__(BUILTIN_ERROR_TYPES[ERROR_SMALL_GROUP])

    def detect(self, ctx: DetectionContext, group: Group) -> list[Anomaly]:
        threshold = ctx.config.min_group_size
        if group.size >= threshold:
            return []
        key = group.key
        detail = f"group has {group.size} rows (minimum {threshold})"
        return [
            Anomaly(row_id, key.categorical, self.code, key,
                    key.category, detail)
            for row_id in group.row_ids
        ]


class FunctionDetector(Detector):
    """Adapter for user-defined detector functions (paper's custom API).

    Not :attr:`~Detector.local`: the function sees every column of the group
    and, through ``sql``, the whole database.
    """

    def __init__(self, error_type: ErrorType, fn: Callable):
        super().__init__(error_type)
        self.fn = fn
        parameters = inspect.signature(fn).parameters
        self._wants_sql = "sql" in parameters

    def detect(self, ctx: DetectionContext, group: Group) -> list[Anomaly]:
        key = group.key
        frame = _group_frame(ctx.backend, group)
        kwargs = {}
        if self._wants_sql:
            kwargs["sql"] = ctx.sql
        try:
            row_ids = self.fn(
                df=frame, target_column=key.numerical,
                error_type_code=self.code, **kwargs,
            )
        except Exception as exc:
            raise DetectorError(
                f"custom detector {self.code!r} failed: {exc}"
            ) from exc
        if row_ids is None:
            return []
        member = set(group.row_ids)
        anomalies = []
        for row_id in row_ids:
            row_id = int(row_id)
            if row_id not in member:
                continue  # detectors are scoped to their group
            anomalies.append(
                Anomaly(row_id, key.numerical, self.code, key, None,
                        f"flagged by custom detector {self.code!r}")
            )
        return anomalies


def _group_frame(backend: Backend, group: Group):
    """Materialize one group's rows (plus ``_row_id``) as a DataFrame."""
    from repro.frame import DataFrame

    names = backend.column_names()
    data: dict[str, list] = {"_row_id": list(group.row_ids)}
    for name in names:
        data[name] = backend.values(name, group.row_ids)
    return DataFrame.from_dict(data)


class DetectorRegistry:
    """Maps error codes to detectors; custom codes get unique colours."""

    def __init__(self) -> None:
        self._detectors: dict[str, Detector] = {}
        for detector in (
            MissingValueDetector(), OutlierDetector(),
            TypeMismatchDetector(), SmallGroupDetector(),
        ):
            self._detectors[detector.code] = detector

    def codes(self) -> list[str]:
        """All registered error codes."""
        return list(self._detectors)

    def get(self, code: str) -> Detector:
        """The detector for ``code`` (raises on unknown codes)."""
        try:
            return self._detectors[code]
        except KeyError:
            raise UnknownErrorCodeError(
                f"no detector registered for error code {code!r}"
            ) from None

    def error_type(self, code: str) -> ErrorType:
        """Display metadata for ``code``."""
        return self.get(code).error_type

    def all(self) -> list[Detector]:
        """All detectors, built-ins first."""
        return list(self._detectors.values())

    def register_function(self, code: str, fn: Callable, label: str = "",
                          color: str = CUSTOM_ERROR_COLOR,
                          severity: float = 1.0) -> Detector:
        """Register a custom detector function under ``code``.

        "Each custom detector is mapped to a unique error code" (§3.1) —
        re-registering an existing code replaces it.
        """
        error_type = ErrorType(code, label or code, color, severity)
        detector = FunctionDetector(error_type, fn)
        self._detectors[code] = detector
        return detector

    def register(self, detector: Detector) -> None:
        """Register a fully custom :class:`Detector` subclass instance."""
        self._detectors[detector.code] = detector

    def unregister(self, code: str) -> None:
        """Remove a custom detector (built-ins cannot be removed)."""
        if code in BUILTIN_ERROR_TYPES:
            raise DetectorError(f"cannot unregister built-in detector {code!r}")
        self._detectors.pop(code, None)
