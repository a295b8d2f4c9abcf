"""Unit tests for the snapshot stores."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SnapshotError
from repro.snapshots import DeltaSnapshot, DifferentialStore, FullCopyStore


def _delta(i: int) -> DeltaSnapshot:
    return DeltaSnapshot(updated={1: {"a": (i, i + 1)}}, label=f"op{i}")


_cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.integers(-(2 ** 80), 2 ** 80),
    st.sampled_from([2 ** 63, -(2 ** 63) - 1, 10 ** 30]),
    st.floats(allow_nan=False),
    st.text(max_size=5),
)
_rows = st.dictionaries(st.integers(1, 20), st.dictionaries(st.sampled_from("ab"), _cells,
                                                             max_size=2), max_size=3)
_deltas = st.builds(
    DeltaSnapshot,
    deleted=_rows,
    inserted=_rows,
    updated=st.dictionaries(st.integers(1, 20), st.dictionaries(
        st.sampled_from("ab"), st.tuples(_cells, _cells), min_size=1, max_size=2), max_size=3),
    label=st.text(max_size=5),
)


def _typed(delta: DeltaSnapshot) -> tuple:
    """The delta with every cell paired with its type, so ``1 == 1.0 == True``
    cannot hide a changed cell."""
    def cells(rows):
        return {row: {col: (type(v), v) for col, v in content.items()}
                for row, content in rows.items()}
    updated = {row: {col: tuple((type(v), v) for v in pair) for col, pair in content.items()}
               for row, content in delta.updated.items()}
    return delta.label, cells(delta.deleted), cells(delta.inserted), updated


class TestDifferentialStore:
    def test_record_and_bytes(self):
        store = DifferentialStore()
        store.record(_delta(0))
        store.record(_delta(1))
        assert len(store) == 2
        assert store.total_bytes() > 0

    def test_cumulative(self):
        store = DifferentialStore()
        for i in range(3):
            store.record(_delta(i))
        combined = store.cumulative()
        assert combined.updated == {1: {"a": (0, 3)}}

    def test_compact_preserves_cumulative(self):
        store = DifferentialStore()
        for i in range(5):
            store.record(_delta(i))
        before = store.cumulative().updated
        removed = store.compact(keep_last=2)
        assert removed == 2  # 3 head deltas -> 1
        assert len(store) == 3
        assert store.cumulative().updated == before

    def test_compact_noop_on_small_stores(self):
        store = DifferentialStore()
        store.record(_delta(0))
        assert store.compact(keep_last=5) == 0

    def test_compact_rejects_negative(self):
        with pytest.raises(SnapshotError):
            DifferentialStore().compact(keep_last=-1)

    def test_save_load_roundtrip(self, tmp_path):
        store = DifferentialStore()
        for i in range(3):
            store.record(_delta(i))
        path = tmp_path / "store.jsonl"
        store.save(path)
        again = DifferentialStore.load(path)
        assert len(again) == 3
        assert again.cumulative().updated == store.cumulative().updated

    @settings(max_examples=60, deadline=None)
    @given(deltas=st.lists(_deltas, max_size=4))
    def test_save_load_is_exact_delta_by_delta(self, tmp_path_factory, deltas):
        store = DifferentialStore()
        for delta in deltas:
            store.record(delta)
        path = tmp_path_factory.mktemp("store") / "store.jsonl"
        store.save(path)
        again = DifferentialStore.load(path).deltas()
        assert [_typed(d) for d in again] == [_typed(d) for d in store.deltas()]

    def test_save_refuses_a_non_json_cell(self, tmp_path):
        store = DifferentialStore()
        store.record(DeltaSnapshot(updated={1: {"a": (1, object())}}))
        with pytest.raises(TypeError):
            store.save(tmp_path / "store.jsonl")


class TestFullCopyStore:
    def test_records_deep_copies(self):
        store = FullCopyStore()
        rows = {1: {"a": 1}}
        store.record_state(rows)
        rows[1]["a"] = 99
        assert store.state(0) == {1: {"a": 1}}

    def test_grows_linearly_with_data_size(self):
        small = FullCopyStore()
        big = FullCopyStore()
        small_rows = {i: {"a": i} for i in range(10)}
        big_rows = {i: {"a": i} for i in range(1000)}
        for _ in range(3):
            small.record_state(small_rows)
            big.record_state(big_rows)
        assert big.total_bytes() > 50 * small.total_bytes()

    def test_differential_beats_full_copy_for_point_edits(self):
        """The §6.3 claim: deltas avoid full-copy overhead."""
        rows = {i: {"a": i, "b": f"text-{i}"} for i in range(500)}
        differential = DifferentialStore()
        full = FullCopyStore()
        for step in range(10):
            differential.record(
                DeltaSnapshot(updated={step: {"a": (step, step + 1)}})
            )
            rows[step]["a"] = step + 1
            full.record_state(rows)
        assert differential.total_bytes() < full.total_bytes() / 100
