"""Contract tests: both backends must behave identically.

Every test is parametrized over the SQL and frame backends — Table 1's
comparison is only meaningful if they compute the same answers.
"""

import numpy as np
import pytest

from repro.backends import FrameBackend, SQLBackend, make_backend
from repro.frame import DataFrame

ROWS = [
    ("Bhutan", "BS", 50000.0, 34),
    ("Bhutan", "MS", 61000.0, 29),
    ("Bhutan", "BS", "12k", 41),
    ("Bhutan", "PhD", 1000000.0, 38),
    ("Lesotho", "PhD", 72000.0, 35),
    ("Lesotho", "BS", None, 52),
    ("Lesotho", "MS", 48000.0, 44),
    ("Lesotho", "BS", 55000.0, 31),
    ("Nauru", "BS", 51000.0, 27),
]
COLUMNS = ["country", "degree", "income", "age"]


@pytest.fixture(params=["sql", "frame"])
def backend(request):
    frame = DataFrame.from_rows(ROWS, COLUMNS)
    return make_backend(frame, request.param)


class TestSchema:
    def test_kind_factory(self):
        frame = DataFrame.from_rows(ROWS, COLUMNS)
        assert isinstance(make_backend(frame, "sql"), SQLBackend)
        assert isinstance(make_backend(frame, "frame"), FrameBackend)
        with pytest.raises(ValueError):
            make_backend(frame, "duckdb")

    def test_columns_and_counts(self, backend):
        assert backend.column_names() == COLUMNS
        assert backend.row_count() == 9

    def test_categorical_columns(self, backend):
        cats = backend.categorical_columns()
        assert "country" in cats and "degree" in cats

    def test_numerical_columns(self, backend):
        nums = backend.numerical_columns()
        assert "income" in nums and "age" in nums


class TestReads:
    def test_row_ids_start_at_one(self, backend):
        assert backend.all_row_ids() == list(range(1, 10))

    def test_row(self, backend):
        row = backend.row(1)
        assert row["country"] == "Bhutan"
        assert row["age"] == 34

    def test_values_aligned(self, backend):
        assert backend.values("country", [9, 1]) == ["Nauru", "Bhutan"]

    def test_distinct_values(self, backend):
        assert set(backend.distinct_values("country")) == {"Bhutan", "Lesotho", "Nauru"}

    def test_group_row_ids(self, backend):
        assert sorted(backend.group_row_ids("country", "Nauru")) == [9]
        assert sorted(backend.group_row_ids("country", "Bhutan")) == [1, 2, 3, 4]

    def test_group_sizes(self, backend):
        assert backend.group_sizes("country") == {
            "Bhutan": 4, "Lesotho": 4, "Nauru": 1,
        }

    def test_group_sizes_with_missing_key(self, backend):
        delta = backend.set_cells("country", [9], None)
        sizes = backend.group_sizes("country")
        assert sizes.get(None) == 1
        backend.revert_delta(delta)

    def test_numeric_stats_global(self, backend):
        stats = backend.numeric_stats("income")
        # '12k' (text) and None excluded: 7 numeric values
        assert stats.count == 7
        assert stats.min == 48000.0
        assert stats.max == 1000000.0

    def test_numeric_stats_scoped(self, backend):
        stats = backend.numeric_stats("income", "country", "Lesotho")
        assert stats.count == 3
        assert stats.mean == pytest.approx((72000 + 48000 + 55000) / 3)


class TestFrameScopedStats:
    """The frame's group-scoped stats cover exactly ``group_row_ids(cat, c)``,
    whatever the categorical column's dtype, missing cells included."""

    CATEGORIES = {
        "text": ["a", "b", None, "a", "b", "a", None],
        "ints": [1, 2, None, 1, 2, 1, 2],
        "flags": [True, False, None, True, False, True, None],
        "mixed": [1, "x", None, 1, "x", "y", 1],
    }
    NUMBERS = [1.0, 5.0, 2.0, "12k", None, 9.5, 4.0]

    @pytest.mark.parametrize("cat", list(CATEGORIES))
    def test_stats_over_group_rows(self, cat):
        backend = FrameBackend(DataFrame.from_dict(
            {cat: self.CATEGORIES[cat], "num": self.NUMBERS}))
        for category in backend.group_sizes(cat):
            rows = backend.group_row_ids(cat, category)
            numbers = [value for value in backend.values("num", rows)
                       if isinstance(value, float)]
            stats = backend.numeric_stats("num", cat, category)
            assert stats.count == len(numbers)
            if numbers:
                assert (stats.mean, stats.std, stats.min, stats.max) == pytest.approx(
                    (np.mean(numbers), np.std(numbers), min(numbers), max(numbers)))


class TestDetectorCapabilities:
    def test_missing(self, backend):
        assert backend.missing_row_ids("income") == [6]

    def test_mismatch(self, backend):
        assert backend.mismatch_row_ids("income") == [3]

    def test_out_of_range(self, backend):
        rows = backend.out_of_range_row_ids("income", 0, 100000)
        assert rows == [4]


class TestWrites:
    def test_delete_and_revert(self, backend):
        delta = backend.delete_rows([1, 3])
        assert backend.row_count() == 7
        assert set(delta.deleted) == {1, 3}
        assert delta.deleted[3]["income"] == "12k"
        backend.revert_delta(delta)
        assert backend.row_count() == 9
        assert backend.row(3)["income"] == "12k"

    def test_set_cells_broadcast_and_revert(self, backend):
        delta = backend.set_cells("income", [1, 2], 99.0)
        assert backend.values("income", [1, 2]) == [99.0, 99.0]
        backend.revert_delta(delta)
        assert backend.values("income", [1, 2]) == [50000.0, 61000.0]

    def test_set_cells_per_row_values(self, backend):
        delta = backend.set_cells("age", [1, 2], values=[100, 200])
        assert backend.values("age", [1, 2]) == [100, 200]
        assert delta.updated[1]["age"] == (34, 100)
        backend.revert_delta(delta)

    def test_set_cells_skips_noop_writes(self, backend):
        delta = backend.set_cells("age", [1], 34)
        assert delta.is_empty

    def test_set_cells_to_null(self, backend):
        delta = backend.set_cells("income", [1], None)
        assert backend.values("income", [1]) == [None]
        assert backend.missing_row_ids("income") == [1, 6]
        backend.revert_delta(delta)

    def test_group_membership_updates_after_delete(self, backend):
        delta = backend.delete_rows([9])
        assert backend.group_row_ids("country", "Nauru") == []
        backend.revert_delta(delta)
        assert backend.group_row_ids("country", "Nauru") == [9]

    def test_group_membership_updates_after_relabel(self, backend):
        delta = backend.set_cells("country", [9], "Other")
        assert backend.group_row_ids("country", "Other") == [9]
        assert backend.group_row_ids("country", "Nauru") == []
        backend.revert_delta(delta)

    def test_delete_everything_and_restore(self, backend):
        delta = backend.delete_rows(backend.all_row_ids())
        assert backend.row_count() == 0
        backend.revert_delta(delta)
        assert backend.row_count() == 9


class TestRollbackKeepsTypes:
    """Undoing a write leaves every cell with its uploaded type on both
    backends: an int column that held 2.5 for a moment reads 52 back as
    ``52``, not ``52.0``."""

    @staticmethod
    def _ints(backend):
        return make_backend(DataFrame.from_dict({"x": [1, 2, 3, 52]}), backend)

    @pytest.mark.parametrize("kind", ["sql", "frame"])
    def test_rolled_back_float_write(self, kind):
        backend = self._ints(kind)
        delta = backend.set_cells("x", [4], value=2.5)
        assert backend.values("x", [4]) == [2.5]
        backend.apply_delta(delta.inverse())
        value, = backend.values("x", [4])
        assert value == 52 and type(value) is int
        if kind == "frame":
            assert backend.frame["x"].dtype == "int64"

    @pytest.mark.parametrize("kind", ["sql", "frame"])
    def test_delete_then_undo(self, kind):
        backend = self._ints(kind)
        delta = backend.delete_rows([2, 4])
        backend.apply_delta(delta.inverse())
        values = backend.values("x", [1, 2, 3, 4])
        assert values == [1, 2, 3, 52]
        assert all(type(value) is int for value in values)
        if kind == "frame":
            assert backend.frame["x"].dtype == "int64"

    def test_committed_float_stays(self):
        backend = self._ints("frame")
        backend.set_cells("x", [1], value=2.5)
        delta = backend.set_cells("x", [4], value=7.5)
        backend.apply_delta(delta.inverse())
        assert backend.frame["x"].dtype == "float64"  # 2.5 does not fit int64
        assert backend.values("x", [1, 4]) == [2.5, 52.0]


class TestInfrastructure:
    def test_to_frame_roundtrip(self, backend):
        frame = backend.to_frame()
        assert frame.n_rows == 9
        assert frame.column_names == COLUMNS

    def test_to_frame_with_row_ids(self, backend):
        frame = backend.to_frame(include_row_ids=True)
        assert frame.column_names[0] == "_row_id"
        assert frame["_row_id"].to_list() == list(range(1, 10))

    def test_ensure_index_idempotent(self, backend):
        backend.ensure_index("country")
        backend.ensure_index("country")
        # still answers correctly
        assert sorted(backend.group_row_ids("country", "Nauru")) == [9]

    def test_flush(self, backend):
        backend.set_cells("age", [1], 99)
        flushed = backend.flush()
        assert flushed >= 0  # sql counts wal records, frame is a no-op


class TestSQLSpecific:
    def test_detectors_run_as_sql(self):
        frame = DataFrame.from_rows(ROWS, COLUMNS)
        backend = SQLBackend.from_frame(frame)
        plan = backend.db.explain(
            'SELECT rowid FROM data WHERE "income" IS NULL AND "country" = ?'
        )
        assert "Scan" in plan  # the capability is a real SQL query

    def test_index_created_per_chart_attribute(self):
        frame = DataFrame.from_rows(ROWS, COLUMNS)
        backend = SQLBackend.from_frame(frame)
        backend.ensure_index("country")
        backend.ensure_index("income")
        names = backend.db.index_names()
        assert "idx_data_country" in names and "idx_data_income" in names
        # text -> hash, numeric -> btree
        assert backend.db.index_catalog["idx_data_country"].kind == "hash"
        assert backend.db.index_catalog["idx_data_income"].kind == "btree"

    def test_group_lookup_uses_index(self):
        frame = DataFrame.from_rows(ROWS, COLUMNS)
        backend = SQLBackend.from_frame(frame)
        backend.ensure_index("country")
        plan = backend.db.explain('SELECT rowid FROM data WHERE "country" = ?')
        assert "IndexEqScan" in plan

    def test_set_cells_replay_matches_stored_state(self):
        """Regression: the snapshot must record exactly what SQL stored.

        On a MIXED-affinity column a digit string coerces to a number; the
        delta, the stored cell, and an undo/redo replay must all agree in
        value *and* type, or replays drift away from the table state.
        """
        frame = DataFrame.from_rows(
            [("a", 1.5), ("b", "x"), ("c", 3.0)], ["k", "m"]
        )
        assert {c.name: c.dtype for c in frame.columns}["m"] == "mixed"
        backend = SQLBackend.from_frame(frame)

        delta = backend.set_cells("m", [2], "7")
        stored = backend.values("m", [2])[0]
        _old, recorded = delta.updated[2]["m"]
        assert recorded == stored and type(recorded) is type(stored)

        backend.revert_delta(delta)
        assert backend.values("m", [2])[0] == "x"
        backend.apply_delta(delta)
        replayed = backend.values("m", [2])[0]
        assert replayed == stored and type(replayed) is type(stored)
