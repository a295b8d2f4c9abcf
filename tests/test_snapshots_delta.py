"""Unit and property tests for differential snapshots."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SnapshotError
from repro.snapshots import DeltaSnapshot


def make_delta():
    return DeltaSnapshot(
        deleted={1: {"a": 10, "b": "x"}},
        inserted={5: {"a": 50, "b": "y"}},
        updated={2: {"a": (20, 21)}},
        label="test",
    )


class TestBasics:
    def test_empty(self):
        assert DeltaSnapshot().is_empty
        assert not make_delta().is_empty

    def test_row_ids(self):
        assert make_delta().row_ids() == {1, 2, 5}

    def test_size_bytes_positive(self):
        assert make_delta().size_bytes() > 0

    def test_inverse_swaps(self):
        inverse = make_delta().inverse()
        assert inverse.deleted == {5: {"a": 50, "b": "y"}}
        assert inverse.inserted == {1: {"a": 10, "b": "x"}}
        assert inverse.updated == {2: {"a": (21, 20)}}

    def test_double_inverse_is_identity(self):
        delta = make_delta()
        again = delta.inverse().inverse()
        assert again.deleted == delta.deleted
        assert again.inserted == delta.inserted
        assert again.updated == delta.updated

    def test_serialization_roundtrip(self):
        delta = make_delta()
        again = DeltaSnapshot.from_dict(delta.to_dict())
        assert again.deleted == delta.deleted
        assert again.inserted == delta.inserted
        assert again.updated == delta.updated

    def test_malformed_payload(self):
        with pytest.raises(SnapshotError):
            DeltaSnapshot.from_dict({"updated": {"not_an_int": {}}})


class TestCompose:
    def test_updates_of_different_cells(self):
        first = DeltaSnapshot(updated={1: {"a": (1, 2)}})
        second = DeltaSnapshot(updated={1: {"b": (5, 6)}, 2: {"a": (0, 9)}})
        combined = first.compose(second)
        assert combined.updated == {1: {"a": (1, 2), "b": (5, 6)}, 2: {"a": (0, 9)}}

    def test_update_then_update(self):
        first = DeltaSnapshot(updated={1: {"a": (0, 1)}})
        second = DeltaSnapshot(updated={1: {"a": (1, 2)}})
        combined = first.compose(second)
        assert combined.updated == {1: {"a": (0, 2)}}

    def test_update_then_delete_records_original(self):
        first = DeltaSnapshot(updated={1: {"a": (0, 1)}})
        second = DeltaSnapshot(deleted={1: {"a": 1, "b": "x"}})
        combined = first.compose(second)
        assert combined.updated == {}
        assert combined.deleted == {1: {"a": 0, "b": "x"}}  # pre-update value

    def test_insert_then_delete_cancels(self):
        first = DeltaSnapshot(inserted={9: {"a": 1}})
        second = DeltaSnapshot(deleted={9: {"a": 1}})
        combined = first.compose(second)
        assert combined.is_empty

    def test_insert_then_update_folds(self):
        first = DeltaSnapshot(inserted={9: {"a": 1}})
        second = DeltaSnapshot(updated={9: {"a": (1, 7)}})
        combined = first.compose(second)
        assert combined.inserted == {9: {"a": 7}}

    def test_delete_then_reinsert_becomes_update(self):
        first = DeltaSnapshot(deleted={3: {"a": 1, "b": "x"}})
        second = DeltaSnapshot(inserted={3: {"a": 2, "b": "x"}})
        combined = first.compose(second)
        assert combined.deleted == {}
        assert combined.updated == {3: {"a": (1, 2)}}

    def test_delete_then_identical_reinsert_cancels(self):
        first = DeltaSnapshot(deleted={3: {"a": 1}})
        second = DeltaSnapshot(inserted={3: {"a": 1}})
        assert first.compose(second).is_empty


def _apply(state: dict, delta: DeltaSnapshot) -> dict:
    """Reference model: apply a delta to {row_id: {col: value}}."""
    state = {rid: dict(vals) for rid, vals in state.items()}
    for rid in delta.deleted:
        del state[rid]
    for rid, vals in delta.inserted.items():
        state[rid] = dict(vals)
    for rid, cells in delta.updated.items():
        for col, (_old, new) in cells.items():
            state[rid][col] = new
    return state


@st.composite
def _state_and_ops(draw):
    n = draw(st.integers(2, 8))
    state = {rid: {"a": draw(st.integers(0, 9))} for rid in range(1, n + 1)}
    ops = draw(st.lists(
        st.tuples(st.sampled_from(["delete", "update", "insert"]),
                  st.integers(1, n + 4), st.integers(0, 9)),
        max_size=12,
    ))
    return state, ops


@settings(max_examples=200, deadline=None)
@given(_state_and_ops())
def test_property_compose_equals_sequential_apply(case):
    """Composing deltas must equal applying them one by one."""
    state, ops = case
    current = {rid: dict(v) for rid, v in state.items()}
    deltas = []
    next_id = max(state) + 1
    for kind, rid, value in ops:
        if kind == "delete" and rid in current:
            delta = DeltaSnapshot(deleted={rid: dict(current[rid])})
        elif kind == "update" and rid in current:
            delta = DeltaSnapshot(updated={rid: {"a": (current[rid]["a"], value)}})
        elif kind == "insert" and rid not in current:
            delta = DeltaSnapshot(inserted={rid: {"a": value}})
        else:
            continue
        deltas.append(delta)
        current = _apply(current, delta)
    combined = DeltaSnapshot()
    for delta in deltas:
        combined = combined.compose(delta)
    assert _apply(state, combined) == current


@settings(max_examples=200, deadline=None)
@given(_state_and_ops())
def test_property_inverse_undoes(case):
    """state -> apply(delta) -> apply(inverse) round-trips."""
    state, ops = case
    current = {rid: dict(v) for rid, v in state.items()}
    for kind, rid, value in ops:
        if kind == "delete" and rid in current:
            delta = DeltaSnapshot(deleted={rid: dict(current[rid])})
        elif kind == "update" and rid in current:
            delta = DeltaSnapshot(updated={rid: {"a": (current[rid]["a"], value)}})
        elif kind == "insert" and rid not in current:
            delta = DeltaSnapshot(inserted={rid: {"a": value}})
        else:
            continue
        after = _apply(current, delta)
        assert _apply(after, delta.inverse()) == current
        current = after
