"""Unit tests for the error index, detection engine, ranking, history, cache."""

import pytest

from repro.backends import make_backend
from repro.config import BuckarooConfig
from repro.core.cache import WriteCache
from repro.core.detectors import DetectorRegistry
from repro.core.engine import DetectionEngine, ErrorIndex
from repro.core.history import ActionRecord, HistoryLog
from repro.core.ranking import dominant_error_color, rank_error_types, rank_groups
from repro.core.types import (
    ERROR_MISSING,
    ERROR_OUTLIER,
    Anomaly,
    Group,
    GroupKey,
    NO_ANOMALY_COLOR,
    RepairPlan,
)
from repro.errors import HistoryError
from repro.frame import DataFrame
from repro.snapshots import DeltaSnapshot

from tests.test_backends import COLUMNS, ROWS

KEY_A = GroupKey("country", "Bhutan", "income")
KEY_B = GroupKey("degree", "BS", "income")


def anomaly(row_id, code, key):
    return Anomaly(row_id, key.numerical, code, key)


class TestErrorIndex:
    def test_replace_and_query(self):
        index = ErrorIndex()
        index.replace_group(KEY_A, [anomaly(1, ERROR_MISSING, KEY_A)])
        assert len(index.anomalies(KEY_A)) == 1
        assert index.total() == 1
        assert index.rows_with_errors() == {1}
        assert index.row_errors(1) == {(ERROR_MISSING, KEY_A)}

    def test_replace_clears_previous(self):
        index = ErrorIndex()
        index.replace_group(KEY_A, [anomaly(1, ERROR_MISSING, KEY_A)])
        index.replace_group(KEY_A, [anomaly(2, ERROR_OUTLIER, KEY_A)])
        assert index.rows_with_errors() == {2}
        assert index.counts_by_code() == {ERROR_OUTLIER: 1}

    def test_row_in_multiple_groups(self):
        index = ErrorIndex()
        index.replace_group(KEY_A, [anomaly(1, ERROR_MISSING, KEY_A)])
        index.replace_group(KEY_B, [anomaly(1, ERROR_MISSING, KEY_B)])
        assert len(index.row_errors(1)) == 2
        index.drop_group(KEY_A)
        assert index.row_errors(1) == {(ERROR_MISSING, KEY_B)}

    def test_drop_rows(self):
        index = ErrorIndex()
        index.replace_group(KEY_A, [
            anomaly(1, ERROR_MISSING, KEY_A), anomaly(2, ERROR_OUTLIER, KEY_A),
        ])
        index.drop_rows([1])
        assert index.rows_with_errors() == {2}
        assert index.total() == 1

    def test_group_anomalies_by_code(self):
        index = ErrorIndex()
        index.replace_group(KEY_A, [
            anomaly(1, ERROR_MISSING, KEY_A), anomaly(2, ERROR_MISSING, KEY_A),
            anomaly(3, ERROR_OUTLIER, KEY_A),
        ])
        buckets = index.group_anomalies_by_code(KEY_A)
        assert len(buckets[ERROR_MISSING]) == 2
        assert len(buckets[ERROR_OUTLIER]) == 1


@pytest.fixture(params=["sql", "frame"])
def engine(request):
    backend = make_backend(DataFrame.from_rows(ROWS, COLUMNS), request.param)
    return DetectionEngine(backend, BuckarooConfig(min_group_size=2))


class TestDetectionEngine:
    def _groups(self, engine):
        ids_b = tuple(engine.backend.group_row_ids("country", "Bhutan"))
        ids_n = tuple(engine.backend.group_row_ids("country", "Nauru"))
        return [
            Group(GroupKey("country", "Bhutan", "income"), ids_b),
            Group(GroupKey("country", "Nauru", "income"), ids_n),
        ]

    def test_detect_all(self, engine):
        total = engine.detect_all(self._groups(engine))
        assert total == engine.index.total()
        assert total >= 3  # outlier + mismatch + small group at least

    def test_detect_groups_is_incremental(self, engine):
        groups = self._groups(engine)
        engine.detect_all(groups)
        runs_before = engine.detections_run
        engine.detect_groups([groups[1]])
        assert engine.detections_run == runs_before + 1

    def test_counts_instrumented(self, engine):
        engine.detect_all(self._groups(engine))
        assert engine.detections_run == 2


class TestRanking:
    def _populated(self):
        index = ErrorIndex()
        registry = DetectorRegistry()
        index.replace_group(KEY_A, [
            anomaly(1, ERROR_MISSING, KEY_A), anomaly(2, ERROR_MISSING, KEY_A),
        ])
        index.replace_group(KEY_B, [anomaly(3, ERROR_OUTLIER, KEY_B)])
        return index, registry

    def test_rank_error_types_by_frequency(self):
        index, registry = self._populated()
        summary = rank_error_types(index, registry)
        assert summary[0].code == ERROR_MISSING
        assert summary[0].count == 2

    def test_rank_groups_weighted(self):
        index, registry = self._populated()
        ranks = rank_groups(index, registry)
        assert ranks[0].key == KEY_A
        assert ranks[0].dominant_code == ERROR_MISSING
        assert ranks[1].key == KEY_B

    def test_rank_groups_limit(self):
        index, registry = self._populated()
        assert len(rank_groups(index, registry, limit=1)) == 1

    def test_dominant_color(self):
        index, registry = self._populated()
        color = dominant_error_color(index, registry, KEY_A)
        assert color == registry.error_type(ERROR_MISSING).color
        clean = dominant_error_color(index, registry, GroupKey("x", "y", "z"))
        assert clean == NO_ANOMALY_COLOR


class TestHistory:
    def _record(self, seq=1):
        plan = RepairPlan("delete_rows", KEY_A, ERROR_MISSING)
        return ActionRecord(seq, plan, DeltaSnapshot(), [KEY_A])

    def test_undo_redo_cycle(self):
        log = HistoryLog()
        record = self._record(log.next_seq())
        log.record(record)
        assert log.can_undo and not log.can_redo
        popped = log.pop_undo()
        assert popped is record
        assert log.can_redo and not log.can_undo
        assert log.pop_redo() is record
        assert log.can_undo

    def test_new_action_clears_redo(self):
        log = HistoryLog()
        log.record(self._record(log.next_seq()))
        log.pop_undo()
        log.record(self._record(log.next_seq()))
        assert not log.can_redo

    def test_empty_stacks_raise(self):
        log = HistoryLog()
        with pytest.raises(HistoryError):
            log.pop_undo()
        with pytest.raises(HistoryError):
            log.pop_redo()

    def test_records_order(self):
        log = HistoryLog()
        first = self._record(log.next_seq())
        second = self._record(log.next_seq())
        log.record(first)
        log.record(second)
        assert log.records() == [first, second]


class TestWriteCache:
    class _FakeBackend:
        def __init__(self):
            self.flushes = 0

        def flush(self):
            self.flushes += 1
            return 5

    def test_flushes_every_interval(self):
        backend = self._FakeBackend()
        cache = WriteCache(backend, flush_interval=3)
        assert not cache.notify_update()
        assert not cache.notify_update()
        assert cache.notify_update()  # third update flushes (paper default)
        assert backend.flushes == 1
        assert cache.records_flushed == 5
        assert cache.pending == 0

    def test_force_flush_resets_counter(self):
        backend = self._FakeBackend()
        cache = WriteCache(backend, flush_interval=10)
        cache.notify_update()
        cache.force_flush()
        assert cache.pending == 0
        assert backend.flushes == 1

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            WriteCache(self._FakeBackend(), flush_interval=0)
