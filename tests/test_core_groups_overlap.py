"""Unit tests for group generation and the overlap graph."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import make_backend
from repro.config import BuckarooConfig
from repro.core.groups import GroupManager
from repro.core.overlap import OverlapGraph
from repro.core.session import BuckarooSession
from repro.core.types import (
    OP_DELETE_ROWS,
    OP_SET_CELLS,
    GroupKey,
    PlanOp,
    RepairPlan,
)
from repro.errors import BuckarooError
from repro.frame import DataFrame
from repro.snapshots import DeltaSnapshot

from tests.test_backends import COLUMNS, ROWS


@pytest.fixture(params=["sql", "frame"])
def manager(request):
    backend = make_backend(DataFrame.from_rows(ROWS, COLUMNS), request.param)
    manager = GroupManager(backend, BuckarooConfig(min_group_size=2))
    manager.generate(cat_cols=["country", "degree"], num_cols=["income", "age"])
    return manager


def membership(manager):
    return {key: group.row_ids for key, group in manager.groups.items()}


def backend_membership(manager):
    """What the backend's own per-category queries say, independently."""
    backend = manager.backend
    expected = {}
    for cat in manager.categorical_attributes:
        for category in backend.group_sizes(cat):
            rows = tuple(sorted(backend.group_row_ids(cat, category)))
            for num in manager.numerical_attributes:
                expected[GroupKey(cat, category, num)] = rows
    return expected


class TestGeneration:
    def test_pairs_are_cat_times_num(self, manager):
        assert set(manager.pairs) == {
            ("country", "income"), ("country", "age"),
            ("degree", "income"), ("degree", "age"),
        }

    def test_group_count(self, manager):
        # 3 countries x 2 nums + 3 degrees x 2 nums
        assert len(manager.groups) == 12

    def test_group_membership(self, manager):
        key = GroupKey("country", "Bhutan", "income")
        assert sorted(manager.group(key).row_ids) == [1, 2, 3, 4]

    def test_row_ids_shared_across_pair_siblings(self, manager):
        income = manager.group(GroupKey("country", "Nauru", "income"))
        age = manager.group(GroupKey("country", "Nauru", "age"))
        assert income.row_ids == age.row_ids

    def test_unknown_group_raises(self, manager):
        with pytest.raises(BuckarooError, match="unknown group"):
            manager.group(GroupKey("country", "Atlantis", "income"))

    def test_auto_column_choice(self):
        backend = make_backend(DataFrame.from_rows(ROWS, COLUMNS), "frame")
        manager = GroupManager(backend, BuckarooConfig())
        keys = manager.generate()
        assert keys  # country/degree x income/age discovered automatically

    def test_keys_for_pair(self, manager):
        keys = manager.keys_for_pair("country", "income")
        assert len(keys) == 3
        assert all(k.pair == ("country", "income") for k in keys)


class TestGroupsOfRows:
    def test_row_in_one_group_per_pair(self, manager):
        keys = manager.groups_of_rows([1])
        assert len(keys) == 4  # one per pair
        assert GroupKey("country", "Bhutan", "income") in keys
        assert GroupKey("degree", "BS", "income") in keys

    def test_multiple_rows_union(self, manager):
        keys = manager.groups_of_rows([1, 5])
        assert GroupKey("country", "Lesotho", "income") in keys
        assert GroupKey("country", "Bhutan", "income") in keys

    def test_empty_input(self, manager):
        assert manager.groups_of_rows([]) == set()


class TestRefresh:
    def test_refresh_after_delete_drops_empty_group(self, manager):
        key = GroupKey("country", "Nauru", "income")
        manager.backend.delete_rows([9])
        alive = manager.refresh([key])
        assert alive == []
        assert key not in manager.groups

    def test_refresh_updates_membership(self, manager):
        key = GroupKey("country", "Bhutan", "income")
        manager.backend.delete_rows([1])
        manager.refresh([key])
        assert sorted(manager.group(key).row_ids) == [2, 3, 4]

    def test_discover_new_categories(self, manager):
        manager.backend.set_cells("country", [9], "Atlantis")
        new_keys = manager.discover_new_categories("country")
        assert GroupKey("country", "Atlantis", "income") in new_keys
        assert manager.group(GroupKey("country", "Atlantis", "income")).row_ids == (9,)

    def test_discover_ignores_non_grouping_columns(self, manager):
        assert manager.discover_new_categories("income") == []


class TestApplyDelta:
    """The index follows deltas without reading the backend."""

    def test_delete_shrinks_and_reports_every_pair(self, manager):
        delta = manager.backend.delete_rows([1])
        changed = manager.apply_delta(delta)
        assert changed == {
            GroupKey("country", "Bhutan", "income"), GroupKey("country", "Bhutan", "age"),
            GroupKey("degree", "BS", "income"), GroupKey("degree", "BS", "age"),
        }
        assert manager.group(GroupKey("country", "Bhutan", "age")).row_ids == (2, 3, 4)
        assert manager.groups_of_rows([1]) == set()

    def test_inverse_restores_ascending_order(self, manager):
        before = dict(manager.groups)
        delta = manager.backend.delete_rows([2, 9])
        manager.apply_delta(delta)
        assert GroupKey("country", "Nauru", "income") not in manager.groups
        manager.backend.apply_delta(delta.inverse())
        manager.apply_delta(delta.inverse())
        assert manager.groups == before
        assert manager.group(GroupKey("country", "Bhutan", "income")).row_ids == (1, 2, 3, 4)

    def test_numeric_update_changes_no_membership(self, manager):
        before = dict(manager.groups)
        delta = manager.backend.set_cells("income", [6], 54000.0)
        assert manager.apply_delta(delta) == set()
        assert all(manager.groups[key] is group for key, group in before.items())

    def test_relabel_creates_and_empties_groups(self, manager):
        delta = manager.backend.set_cells("country", [9], "Other")
        changed = manager.apply_delta(delta)
        assert {key.category for key in changed} == {"Nauru", "Other"}
        assert GroupKey("country", "Nauru", "income") not in manager.groups
        assert manager.group(GroupKey("country", "Other", "age")).row_ids == (9,)
        assert GroupKey("country", "Other", "income") in manager.groups_of_rows([9])

    def test_missing_category_is_a_group(self, manager):
        delta = manager.backend.set_cells("country", [5, 6], None)
        manager.apply_delta(delta)
        assert manager.group(GroupKey("country", None, "income")).row_ids == (5, 6)
        assert membership(manager) == backend_membership(manager)

    def test_siblings_share_one_tuple(self, manager):
        manager.apply_delta(manager.backend.delete_rows([1]))
        income = manager.group(GroupKey("country", "Bhutan", "income"))
        age = manager.group(GroupKey("country", "Bhutan", "age"))
        assert income.row_ids is age.row_ids

    def test_empty_delta(self, manager):
        assert manager.apply_delta(DeltaSnapshot()) == set()

    def test_row_updated_and_deleted_by_one_delta_is_gone(self, manager):
        # backends apply deletes before updates, so the update is a no-op
        before = dict(manager.groups)
        row = manager.backend.row(1)
        delta = DeltaSnapshot(
            deleted={1: row},
            updated={1: {"country": ("Bhutan", "Other")},
                     2: {"country": ("Bhutan", "Other")}},
        )
        manager.apply_delta(delta)
        assert manager.group(GroupKey("country", "Other", "income")).row_ids == (2,)
        assert manager.group(GroupKey("country", "Bhutan", "income")).row_ids == (3, 4)
        assert manager.groups_of_rows([1]) == set()
        manager.apply_delta(delta.inverse())  # insert as 'Other', then relabel
        assert manager.groups == before


# -- the index against a rebuild, under random wrangling ----------------------

CATS = ["country", "degree"]
NUMS = ["income", "age"]
N_ROWS = len(ROWS)

# (kind, row pick, value pick); picks are reduced modulo what is live
STEP = st.tuples(
    st.sampled_from([
        "remove", "impute", "merge", "relabel_one", "relabel_remove",
        "speculate_remove", "speculate_merge", "speculate_relabel_remove",
        "preview", "undo", "redo",
    ]),
    st.integers(0, 4 * N_ROWS),
    st.integers(0, 4 * N_ROWS),
)


def build_plan(session, kind, pick, other, group_key=None):
    live = sorted(session.backend.all_row_ids())
    row_id = live[pick % len(live)]
    if kind == "remove":
        rows = tuple(sorted({row_id, live[other % len(live)]}))
        ops = [PlanOp(OP_DELETE_ROWS, rows)]
    elif kind == "impute":
        ops = [PlanOp(OP_SET_CELLS, (row_id,), column="income", value=1000.0 * other)]
    elif kind == "merge":
        # a whole category becomes 'Other': the first merge creates the
        # group, every merge empties one, later merges grow an existing one
        country = session.backend.values("country", [row_id])[0]
        rows = session.group_manager.group(GroupKey("country", country, "income")).row_ids
        ops = [PlanOp(OP_SET_CELLS, rows, column="country", value="Other")]
    elif kind == "relabel_one":  # a group is created or grown, none need empty
        ops = [PlanOp(OP_SET_CELLS, (row_id,), column="degree", value="Other")]
    else:  # relabel_remove: two ops on one row, the second undoes its membership
        rows = tuple(sorted({row_id, live[other % len(live)]}))
        ops = [PlanOp(OP_SET_CELLS, rows, column="country", value="Other"),
               PlanOp(OP_DELETE_ROWS, (row_id,))]
    return RepairPlan("test", group_key, None, ops=ops, description=kind)


@pytest.mark.parametrize("kind", ["sql", "frame"])
@settings(max_examples=40, deadline=None)
@given(steps=st.lists(STEP, min_size=1, max_size=14))
def test_index_equals_rebuild_under_random_wrangling(kind, steps):
    backend = make_backend(DataFrame.from_rows(ROWS, COLUMNS), kind)
    session = BuckarooSession(backend, BuckarooConfig(min_group_size=2))
    session.generate_groups(cat_cols=CATS, num_cols=NUMS)
    session.detect()
    manager = session.group_manager
    for step, pick, other in steps:
        if backend.row_count() <= 2:
            break
        if step == "undo":
            if session.history.can_undo:
                session.undo()
        elif step == "redo":
            if session.history.can_redo:
                session.redo()
        elif step.startswith("speculate") or step == "preview":
            groups = dict(manager.groups)
            errors = session.engine.index.counts_by_group()
            if step == "preview":
                key = manager.keys()[pick % len(manager.groups)]
                session.preview(build_plan(session, "merge", pick, other, key))
            else:
                session.speculate(
                    build_plan(session, step.split("_", 1)[1], pick, other))
            assert manager.groups == groups
            assert session.engine.index.counts_by_group() == errors
        else:
            session.apply(build_plan(session, step, pick, other))
        fresh = GroupManager(backend, session.config)
        fresh.generate(cat_cols=CATS, num_cols=NUMS)
        assert membership(manager) == membership(fresh) == backend_membership(fresh)
        assert all(
            list(rows) == sorted(rows) for rows in membership(manager).values()
        )


@pytest.mark.parametrize("kind", ["sql", "frame"])
def test_session_paths_never_ask_the_backend_for_membership(kind):
    backend = make_backend(DataFrame.from_rows(ROWS, COLUMNS), kind)
    session = BuckarooSession(backend, BuckarooConfig(min_group_size=2))
    session.generate_groups(cat_cols=CATS, num_cols=NUMS)
    session.detect()
    calls = Counter()

    def counting(name):
        inner = getattr(backend, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in ("group_row_ids", "group_sizes"):
        setattr(backend, name, counting(name))
    suggestions = session.suggest(GroupKey("country", "Bhutan", "income"))
    assert suggestions and any(s.resolved for s in suggestions)
    session.apply(RepairPlan("test", None, None, ops=[PlanOp(OP_DELETE_ROWS, (9,))]))
    session.undo()
    assert not calls


class TestOverlapGraph:
    @pytest.fixture
    def graph(self, manager):
        return OverlapGraph(manager)

    def test_affected_groups(self, graph):
        keys = graph.affected_groups([3])  # Bhutan / BS row
        assert GroupKey("country", "Bhutan", "income") in keys
        assert GroupKey("degree", "BS", "income") in keys
        assert GroupKey("country", "Lesotho", "income") not in keys

    def test_neighbors_cross_attribute_only(self, graph):
        key = GroupKey("country", "Nauru", "income")
        neighbors = graph.neighbors(key)
        # Nauru's single row has degree BS -> overlaps the BS groups
        assert GroupKey("degree", "BS", "income") in neighbors
        assert GroupKey("country", "Bhutan", "income") not in neighbors

    def test_sibling_groups_never_overlap(self, graph, manager):
        """Groups over the same attribute are disjoint (§2.1 isolation)."""
        for first, second in graph.edges():
            if first.pair == second.pair:
                assert first.category == second.category

    def test_edges_symmetric_membership(self, graph, manager):
        edges = list(graph.edges())
        assert edges
        for first, second in edges:
            rows_first = set(manager.group(first).row_ids)
            rows_second = set(manager.group(second).row_ids)
            assert rows_first & rows_second

    def test_connected_component_bounded(self, graph):
        key = GroupKey("country", "Bhutan", "income")
        component = graph.connected_component(key, max_groups=3)
        assert key in component
        assert len(component) <= 4  # may slightly exceed via last expansion

    def test_connected_component_full(self, graph):
        key = GroupKey("country", "Bhutan", "income")
        component = graph.connected_component(key)
        # every group is reachable in this dense toy dataset
        assert len(component) == 12

    def test_to_networkx(self, graph, manager):
        nx_graph = graph.to_networkx()
        assert nx_graph.number_of_nodes() == 12
        assert nx_graph.number_of_edges() == len(list(graph.edges()))

    def test_degree(self, graph):
        assert graph.degree(GroupKey("country", "Nauru", "income")) > 0
