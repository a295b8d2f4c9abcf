"""Tests for the incremental backend cache (§3.2) on the SQL backend.

The crucial invariant: after any mutation sequence, cached statistics and
error sets must equal what a fresh scan of the table computes.  Hypothesis
drives random mutation sequences against a recompute-from-scratch oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.sql_backend import SQLBackend
from repro.frame import DataFrame

from tests.test_backends import COLUMNS, ROWS


@pytest.fixture
def backend() -> SQLBackend:
    backend = SQLBackend.from_frame(DataFrame.from_rows(ROWS, COLUMNS))
    backend.ensure_index("country")
    backend.ensure_index("income")
    backend.register_chart_columns(["country", "degree"], ["income", "age"])
    return backend


def fresh_oracle(backend: SQLBackend) -> SQLBackend:
    """An untracked backend over the same current data (recomputes via SQL)."""
    oracle = SQLBackend.from_frame(backend.to_frame())
    return oracle


def assert_consistent(backend: SQLBackend) -> None:
    oracle = fresh_oracle(backend)
    id_map = dict(zip(backend.all_row_ids(), oracle.all_row_ids()))
    for num in ("income", "age"):
        cached = backend.numeric_stats(num)
        scanned = oracle.numeric_stats(num)
        assert cached.count == scanned.count
        if scanned.count:
            assert cached.mean == pytest.approx(scanned.mean)
            assert cached.std == pytest.approx(scanned.std, rel=1e-9, abs=1e-9)
            assert cached.min == pytest.approx(scanned.min)
            assert cached.max == pytest.approx(scanned.max)
        assert sorted(id_map[r] for r in backend.missing_row_ids(num)) == \
            sorted(oracle.missing_row_ids(num))
        assert sorted(id_map[r] for r in backend.mismatch_row_ids(num)) == \
            sorted(oracle.mismatch_row_ids(num))
        for category in backend.distinct_values("country"):
            cached_group = backend.numeric_stats(num, "country", category)
            scanned_group = oracle.numeric_stats(num, "country", category)
            assert cached_group.count == scanned_group.count
            if scanned_group.count:
                assert cached_group.mean == pytest.approx(scanned_group.mean)


class TestTracking:
    def test_initial_build_matches_scan(self, backend):
        assert_consistent(backend)

    def test_tracks_pair(self, backend):
        assert backend.stats_cache.tracks_pair("income", "country")
        assert backend.stats_cache.tracks_pair("income", None)
        assert not backend.stats_cache.tracks_pair("income", "gender")
        assert not backend.stats_cache.tracks_pair("salary", "country")

    def test_track_is_idempotent(self, backend):
        backend.register_chart_columns(["country", "degree"], ["income", "age"])
        assert_consistent(backend)

    def test_track_extends_with_new_columns(self, backend):
        backend.register_chart_columns(["gender"] if "gender" in COLUMNS else [],
                                       [])
        assert_consistent(backend)


class TestMaintenance:
    def test_after_delete(self, backend):
        backend.delete_rows([4, 6])  # the outlier and the missing row
        assert_consistent(backend)
        assert backend.missing_row_ids("income") == []

    def test_after_impute(self, backend):
        backend.set_cells("income", [6], 54000.0)
        assert_consistent(backend)

    def test_after_type_conversion(self, backend):
        backend.set_cells("income", [3], 12000.0)
        assert_consistent(backend)
        assert backend.mismatch_row_ids("income") == []

    def test_after_relabel_moves_buckets(self, backend):
        before = backend.numeric_stats("income", "country", "Lesotho")
        backend.set_cells("country", [9], "Lesotho")  # Nauru row joins Lesotho
        after = backend.numeric_stats("income", "country", "Lesotho")
        assert after.count == before.count + 1
        assert_consistent(backend)

    def test_after_undo_roundtrip(self, backend):
        delta = backend.delete_rows([1, 4, 6])
        backend.revert_delta(delta)
        assert_consistent(backend)

    def test_min_max_dirty_recompute(self, backend):
        stats = backend.numeric_stats("income")
        assert stats.max == 1000000.0
        backend.delete_rows([4])  # removes the maximum
        stats = backend.numeric_stats("income")
        assert stats.max == 72000.0
        assert_consistent(backend)

    def test_transaction_rollback_updates_cache(self, backend):
        backend.db.execute("BEGIN")
        backend.db.execute("DELETE FROM data WHERE country = 'Bhutan'")
        backend.db.execute("ROLLBACK")
        assert_consistent(backend)

    def test_outlier_fast_path_uses_btree(self, backend):
        rows = backend.out_of_range_row_ids("income", 0, 100000)
        assert rows == [4]


class TestNumericalStability:
    def test_large_mean_small_std_survives(self):
        """Regression: naive sum-of-squares cancels catastrophically.

        With mean ~1e9 and std ~1 the naive ``sumsq/n - mean**2`` loses
        every significant digit and the std collapses to ~0 (saved only
        from going imaginary by a clamp).  The shifted accumulator keeps
        its sums at the scale of the spread and stays accurate.
        """
        values = [1.0e9 + (i % 3) - 1.0 for i in range(300)]
        frame = DataFrame.from_rows(
            [("g", v) for v in values], ["cat", "big"]
        )
        backend = SQLBackend.from_frame(frame)
        backend.register_chart_columns(["cat"], ["big"])
        expected_std = (2.0 / 3.0) ** 0.5
        stats = backend.numeric_stats("big")
        assert stats.mean == pytest.approx(1.0e9, rel=1e-12)
        assert stats.std == pytest.approx(expected_std, rel=1e-6)
        grouped = backend.numeric_stats("big", "cat", "g")
        assert grouped.std == pytest.approx(expected_std, rel=1e-6)

    def test_repairing_a_dominant_outlier_recovers_precision(self):
        """Removing a value that dominated the sums must not leave noise.

        A far-outlier anchor value (0.0 among ~1e9 readings) poisons any
        O(1) accumulator; once the outlier is repaired away the cache must
        detect the cancellation and rebuild from the surviving rows."""
        values = [0.0] + [1.0e9 + (i % 3) - 1.0 for i in range(300)]
        frame = DataFrame.from_rows(
            [("g", v) for v in values], ["cat", "big"]
        )
        backend = SQLBackend.from_frame(frame)
        backend.register_chart_columns(["cat"], ["big"])
        backend.set_cells("big", [1], 1.0e9)  # repair the outlier
        expected_std = (200.0 / 301.0) ** 0.5  # 100x(+-1), 101x(0) offsets
        stats = backend.numeric_stats("big")
        assert stats.std == pytest.approx(expected_std, rel=1e-6)
        grouped = backend.numeric_stats("big", "cat", "g")
        assert grouped.std == pytest.approx(expected_std, rel=1e-6)

    def test_long_edit_session_keeps_precision(self):
        """Many add/remove cycles must not erode the cached std."""
        values = [1.0e9 + (i % 3) - 1.0 for i in range(90)]
        frame = DataFrame.from_rows([(v,) for v in values], ["big"])
        backend = SQLBackend.from_frame(frame)
        backend.register_chart_columns([], ["big"])
        for round_ in range(50):
            backend.set_cells("big", [1], 1.0e9 + 5.0)
            backend.set_cells("big", [1], values[0])
        stats = backend.numeric_stats("big")
        assert stats.std == pytest.approx((2.0 / 3.0) ** 0.5, rel=1e-6)
        assert stats.mean == pytest.approx(1.0e9, rel=1e-12)


def _cached(rows) -> SQLBackend:
    backend = SQLBackend.from_frame(DataFrame.from_rows(rows, ["cat", "v"]))
    backend.register_chart_columns(["cat"], ["v"])
    return backend


def _accumulators(backend: SQLBackend) -> list:
    """Every cached accumulator's state, bit for bit (an empty bucket reads
    as an absent one)."""
    def moments(m):
        return (m.n, m.shift, m.total, m.sumsq, m.removed)
    return [(cache.min, cache.max, cache.range_dirty, moments(cache.global_moments),
             {cat: {key: moments(m) for key, m in buckets.items() if m.n}
              for cat, buckets in cache.per_cat.items()})
            for cache in backend.stats_cache._numeric.values()]


class TestExactAfterRemoval:
    def test_a_dominant_removal_leaves_a_fresh_scans_moments(self):
        """Deleting 1 from {0, 1, 0.02} must leave the moments a fresh
        cache over {0, 0.02} holds, to the last bit: both values sit
        exactly one std from the mean, where one ulp flips an outlier."""
        rows = [("g", 0.0), ("g", 1.0), ("g", 0.02)]
        backend = _cached(rows)
        backend.delete_rows([2])
        fresh = _cached([rows[0], rows[2]])
        for args in (("v",), ("v", "cat", "g")):
            assert backend.numeric_stats(*args) == fresh.numeric_stats(*args)
        assert backend.numeric_stats("v").std == 0.01

    def test_a_rolled_back_write_restores_every_accumulator(self):
        backend = _cached([("g", 0.1), ("h", 0.7), ("g", 0.35), ("h", 1e6),
                           ("h", 2.25), ("k", "12k")])
        before = _accumulators(backend)
        with backend.tentative():
            deltas = [backend.delete_rows([4]), backend.set_cells("cat", [1], "h"),
                      backend.set_cells("v", [6], 3.5)]  # k's first number
            backend.numeric_stats("v", "cat", "h")
            backend.numeric_stats("v", "cat", "k")
            backend.numeric_stats("v")
            for delta in reversed(deltas):
                backend.apply_delta(delta.inverse())
        assert _accumulators(backend) == before

    def test_writes_left_standing_by_an_error_keep_their_moments(self):
        backend = _cached([("g", 1.0), ("g", 2.0), ("g", 4.0)])
        with pytest.raises(RuntimeError), backend.tentative():
            backend.delete_rows([3])
            raise RuntimeError("no rollback")
        fresh = _cached([("g", 1.0), ("g", 2.0)])
        assert backend.numeric_stats("v") == fresh.numeric_stats("v")


class TestSimultaneousUpdate:
    def test_numeric_and_categorical_in_one_statement(self, backend):
        """One UPDATE changing a numeric *and* a categorical column must
        rebucket exactly once (the rebucket-skip path), leaving every
        cached per-category statistic equal to a fresh SQL aggregate."""
        before_lesotho = backend.numeric_stats("income", "country", "Lesotho")
        before_bhutan = backend.numeric_stats("income", "country", "Bhutan")
        backend.db.execute(
            'UPDATE data SET "income" = ?, "country" = ? WHERE rowid = ?',
            (99000.0, "Lesotho", 1),
        )
        after_lesotho = backend.numeric_stats("income", "country", "Lesotho")
        after_bhutan = backend.numeric_stats("income", "country", "Bhutan")
        assert after_lesotho.count == before_lesotho.count + 1
        assert after_bhutan.count == before_bhutan.count - 1
        # the *other* numeric column (age) rebuckets through the
        # categorical branch, not the numeric one
        assert backend.numeric_stats("age", "country", "Lesotho").count == 5
        assert_consistent(backend)

    def test_same_category_rewrite_only_moves_numeric(self, backend):
        """Numeric + categorical update where the category value does not
        actually change: buckets must not double-move."""
        backend.db.execute(
            'UPDATE data SET "income" = ?, "country" = ? WHERE rowid = ?',
            (52000.0, "Bhutan", 1),
        )
        assert_consistent(backend)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["delete", "impute", "corrupt", "blank", "relabel", "undo"]),
    st.integers(1, 9),
), max_size=12))
def test_property_cache_matches_fresh_scan(ops):
    """Random mutation sequences keep the cache exactly consistent."""
    backend = SQLBackend.from_frame(DataFrame.from_rows(ROWS, COLUMNS))
    backend.ensure_index("income")
    backend.register_chart_columns(["country", "degree"], ["income", "age"])
    deltas = []
    live = set(backend.all_row_ids())
    for kind, row_id in ops:
        if kind == "undo":
            if deltas:
                backend.revert_delta(deltas.pop())
                live = set(backend.all_row_ids())
            continue
        if row_id not in live:
            continue
        if kind == "delete":
            deltas.append(backend.delete_rows([row_id]))
            live.discard(row_id)
        elif kind == "impute":
            deltas.append(backend.set_cells("income", [row_id], 50000.0))
        elif kind == "corrupt":
            deltas.append(backend.set_cells("income", [row_id], "oops"))
        elif kind == "blank":
            deltas.append(backend.set_cells("income", [row_id], None))
        elif kind == "relabel":
            deltas.append(backend.set_cells("country", [row_id], "Atlantis"))
    assert_consistent(backend)
