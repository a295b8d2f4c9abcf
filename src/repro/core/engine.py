"""Localized, incremental error detection (§3.3).

The :class:`ErrorIndex` is the error-to-tuple mapping the storage layer
maintains (Fig 2 ⑤); the :class:`DetectionEngine` scopes detector runs to
groups, so after a repair only the groups it can change are re-scanned —
"avoiding unnecessary recomputation".  The session picks them: the groups
whose membership the repair's delta changed, plus the groups of its touched
rows whose projected attribute the delta wrote.  That narrowing needs every
registered detector to be :attr:`~repro.core.detectors.Detector.local`;
otherwise every group holding a touched row (the overlap graph's answer)
re-runs.  :meth:`DetectionEngine.detect_groups` only returns results, so a
speculative repair is scored against the index without writing to it.

Detection is set-at-a-time: ``detect_groups`` hands all its groups to each
detector's :meth:`~repro.core.detectors.Detector.detect_many` once.  A
group's anomaly list concatenates the answers in registry order, as a
per-group loop would, and ``detections_run`` still counts groups.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.config import BuckarooConfig
from repro.backends.base import Backend
from repro.core.detectors import DetectionContext, DetectorRegistry
from repro.core.types import Anomaly, Group, GroupKey


class ErrorIndex:
    """Bidirectional anomaly index: by group and by row."""

    def __init__(self) -> None:
        self._by_group: dict[GroupKey, list[Anomaly]] = {}
        self._by_row: dict[int, set[tuple[str, GroupKey]]] = {}

    # -- writes ------------------------------------------------------------

    def replace_group(self, key: GroupKey, anomalies: Sequence[Anomaly]) -> None:
        """Swap in a fresh detection result for one group."""
        self.drop_group(key)
        if not anomalies:
            return
        self._by_group[key] = list(anomalies)
        for anomaly in anomalies:
            self._by_row.setdefault(anomaly.row_id, set()).add(
                (anomaly.error_code, key)
            )

    def drop_group(self, key: GroupKey) -> None:
        """Remove all anomalies recorded under ``key``."""
        previous = self._by_group.pop(key, None)
        if not previous:
            return
        for anomaly in previous:
            entry = self._by_row.get(anomaly.row_id)
            if entry is not None:
                entry.discard((anomaly.error_code, key))
                if not entry:
                    del self._by_row[anomaly.row_id]

    def drop_rows(self, row_ids: Iterable[int]) -> None:
        """Remove anomalies attached to deleted rows.

        Only the groups ``_by_row`` names for those rows are visited.
        """
        doomed = {row_id for row_id in row_ids if row_id in self._by_row}
        keys = {key for row_id in doomed for _code, key in self._by_row.pop(row_id)}
        for key in keys:
            kept = [a for a in self._by_group[key] if a.row_id not in doomed]
            if kept:
                self._by_group[key] = kept
            else:
                del self._by_group[key]

    def clear(self) -> None:
        """Forget everything (used before a full re-detection)."""
        self._by_group.clear()
        self._by_row.clear()

    # -- reads --------------------------------------------------------------

    def anomalies(self, key: Optional[GroupKey] = None) -> list[Anomaly]:
        """Anomalies of one group, or all anomalies."""
        if key is not None:
            return list(self._by_group.get(key, ()))
        return [a for anomalies in self._by_group.values() for a in anomalies]

    def group_anomalies_by_code(self, key: GroupKey) -> dict[str, list[Anomaly]]:
        """One group's anomalies bucketed by error code."""
        buckets: dict[str, list[Anomaly]] = {}
        for anomaly in self._by_group.get(key, ()):
            buckets.setdefault(anomaly.error_code, []).append(anomaly)
        return buckets

    def row_errors(self, row_id: int) -> set[tuple[str, GroupKey]]:
        """``(error_code, group)`` pairs attached to one row."""
        return set(self._by_row.get(row_id, ()))

    def rows_with_errors(self) -> set[int]:
        """All row ids that carry at least one anomaly."""
        return set(self._by_row)

    def counts_by_code(self) -> dict[str, int]:
        """Total anomalies per error code."""
        counts: dict[str, int] = {}
        for anomalies in self._by_group.values():
            for anomaly in anomalies:
                counts[anomaly.error_code] = counts.get(anomaly.error_code, 0) + 1
        return counts

    def counts_by_group(self) -> dict[GroupKey, int]:
        """Total anomalies per group."""
        return {key: len(anomalies) for key, anomalies in self._by_group.items()}

    def total(self) -> int:
        """Total anomaly count."""
        return sum(len(anomalies) for anomalies in self._by_group.values())

    def groups_with_errors(self) -> list[GroupKey]:
        """Keys of groups carrying at least one anomaly."""
        return list(self._by_group)


class DetectionEngine:
    """Runs detectors over groups and maintains the error index."""

    def __init__(self, backend: Backend, config: BuckarooConfig,
                 registry: Optional[DetectorRegistry] = None):
        self.backend = backend
        self.config = config
        self.registry = registry or DetectorRegistry()
        self.ctx = DetectionContext(backend, config)
        self.index = ErrorIndex()
        self.detections_run = 0  # instrumentation for the A1 ablation

    def detect_groups(self, groups: Iterable[Group]) -> dict[GroupKey, list[Anomaly]]:
        """Each group's anomalies, one ``detect_many`` per detector; the index
        is left to the caller."""
        groups = list(groups)
        found: dict[GroupKey, list[Anomaly]] = {group.key: [] for group in groups}
        for detector in self.registry.all():
            for key, anomalies in detector.detect_many(self.ctx, groups).items():
                found[key].extend(anomalies)
        self.detections_run += len(groups)
        return found

    def detect_all(self, groups: Iterable[Group]) -> int:
        """Full pass: clear the index, then detect and index every group."""
        self.index.clear()
        self.ctx.invalidate_stats()
        found = self.detect_groups(groups)
        for key, anomalies in found.items():
            self.index.replace_group(key, anomalies)
        return sum(len(anomalies) for anomalies in found.values())

    def invalidate_stats(self, columns: Optional[list[str]] = None) -> None:
        """Invalidate cached column statistics after data changes."""
        self.ctx.invalidate_stats(columns)
