"""Scoring a repair writes nothing, and equals writing it and rolling it back.

``Backend.plan_delta`` must return exactly the delta executing a plan
returns, and ``session.speculate`` — which scores through a ``DeltaView`` of
that delta — must report the same resolved/introduced counts and affected
groups as the write-and-rollback reference (``_speculate`` with a chart to
capture, the path previews take).  Neither may leave a trace in the backend,
the group memberships or the error index.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.base import ViewMiss
from repro.config import BuckarooConfig
from repro.core.session import BuckarooSession
from repro.core.types import OP_DELETE_ROWS, OP_SET_CELLS, PlanOp, RepairPlan
from repro.frame import DataFrame

from tests.test_core_session import make_session

CATS = ["c", "d"]
NUMS = ["v", "w"]

CELL = st.one_of(
    st.integers(-50, 50),
    st.floats(-500, 500, allow_nan=False).map(lambda x: round(x, 2)),
    st.sampled_from(["12k", "abc"]),
    st.none(),
)
# ``w`` is all ints or missing: an int64 column on the frame backend
ROW = st.tuples(st.sampled_from(["a", "b", None]), st.sampled_from([1, 2, None]),
                CELL, st.one_of(st.integers(0, 100), st.none()))
# ops of one plan often share rows; ids above the row count are dead
ROW_ID = st.one_of(st.integers(1, 4), st.integers(1, 16))


def _ops(kind: str):
    """Random plan ops: deletes, and writes of a new or existing category
    into a categorical column or of any cell into a numerical one.  NaN is
    written on the frame only: on SQL the write-and-rollback reference
    itself breaks on it (a NaN has no place in the B+tree order), which is
    why the view refuses it there."""
    nan = st.just(float("nan")) if kind == "frame" else st.nothing()
    written = {
        **dict.fromkeys(CATS, st.sampled_from(["a", "b", "new", 1, 3, None])),
        **dict.fromkeys(NUMS, st.one_of(CELL, nan)),
    }
    return st.one_of(
        st.builds(lambda rows: PlanOp(OP_DELETE_ROWS, tuple(rows)),
                  st.lists(ROW_ID, max_size=4)),
        st.sampled_from(CATS + NUMS).flatmap(lambda column: st.builds(
            lambda rows, value: PlanOp(OP_SET_CELLS, tuple(rows), column=column,
                                       value=value),
            st.lists(ROW_ID, max_size=4), written[column])),
        st.sampled_from(CATS + NUMS).flatmap(lambda column: st.builds(
            lambda cells: PlanOp(OP_SET_CELLS, tuple(row for row, _ in cells),
                                 column=column, values=tuple(v for _, v in cells)),
            st.lists(st.tuples(ROW_ID, written[column]), max_size=4))),
    )


def record_writes(backend) -> list:
    """Every storage write ``backend`` makes from now on: the write methods,
    and on SQL also WAL appends and table change events."""
    calls: list = []

    def spy(name, method):
        def recorded(*args, **kwargs):
            calls.append(name)
            return method(*args, **kwargs)
        return recorded

    for name in ("delete_rows", "set_cells", "apply_delta"):
        setattr(backend, name, spy(name, getattr(backend, name)))
    if backend.kind == "sql":
        backend.db.wal._append = spy("wal", backend.db.wal._append)
        backend._table.observers.append(lambda event: calls.append(event[0]))
    return calls


def _session(kind: str, scope: str, rows) -> BuckarooSession:
    session = BuckarooSession.from_frame(
        DataFrame.from_rows(rows, CATS + NUMS), backend=kind,
        config=BuckarooConfig(min_group_size=2, outlier_scope=scope,
                              outlier_sigma=1.0),
    )
    session.generate_groups(cat_cols=CATS, num_cols=NUMS)
    session.detect()
    return session


def _state(session: BuckarooSession) -> tuple:
    """Backend rows (typed), group memberships and the error index."""
    backend, index = session.backend, session.engine.index
    return (
        repr(sorted((row_id, backend.row(row_id)) for row_id in backend.all_row_ids())),
        {key: group.row_ids for key, group in session.group_manager.groups.items()},
        {key: [(a.row_id, a.error_code, repr(a.value), a.detail)
               for a in index.anomalies(key)]
         for key in index.groups_with_errors()},
    )


def _content(delta) -> str:
    return repr([sorted(delta.deleted.items()), sorted(delta.inserted.items()),
                 sorted(delta.updated.items())])


def _write_and_rollback(session: BuckarooSession, plan: RepairPlan):
    """The reference: the plan written, re-detected and rolled back."""
    return session._speculate(plan, capture_pair=session.pairs()[0])


def _check(session: BuckarooSession, plan: RepairPlan) -> None:
    before = _state(session)
    planned = session.backend.plan_delta(plan.ops)
    assert _state(session) == before
    executed = session._execute_ops(plan)
    session.backend.apply_delta(executed.inverse())
    assert _content(planned) == _content(executed)
    # undoing a multi-row delete on the frame re-infers the re-inserted rows'
    # dtype (0 reads back 0.0 in a mixed column), so the state is taken again
    before = _state(session)
    scored = session.speculate(plan)
    assert _state(session) == before
    reference = _write_and_rollback(session, plan)
    assert (scored.resolved, scored.introduced, scored.affected_groups) == (
        reference.resolved, reference.introduced, reference.affected)


@pytest.mark.parametrize("scope", ["global", "group"])
@pytest.mark.parametrize("kind", ["sql", "frame"])
@settings(max_examples=25, deadline=None)
@given(rows=st.lists(ROW, min_size=3, max_size=12), data=st.data())
def test_write_free_scoring_matches_write_and_rollback(kind, scope, rows, data):
    session = _session(kind, scope, rows)
    engine = session.suggestion_engine
    for key in session.groups():
        for plan in engine.candidate_plans(key):
            _check(session, plan)
    for ops in data.draw(st.lists(st.lists(_ops(kind), min_size=1, max_size=3),
                                  max_size=4)):
        _check(session, RepairPlan("random", None, None, ops, description="random"))


def test_frame_widening_takes_the_write_and_rollback_path():
    """Text written into a bool column, or into a float column holding a
    NaN, widens it to ``mixed``: the other bools then read as text and the
    NaN as missing.  The view cannot see that, so it refers the plan on."""
    session = BuckarooSession.from_frame(DataFrame.from_dict({
        "c": ["a", "a", "b", "b"], "flag": [True, False, True, None],
        "x": [1.5, 2.5, 3.5, 4.5]}), backend="frame")
    session.generate_groups(cat_cols=["c"], num_cols=["flag", "x"])
    session.detect()
    session.apply(RepairPlan("nan", None, None, [
        PlanOp(OP_SET_CELLS, (1,), column="x", value=float("nan"))], description="nan"))
    for column in ("flag", "x"):
        plan = RepairPlan("text", None, None, [
            PlanOp(OP_SET_CELLS, (2,), column=column, value="abc")], description="text")
        _check(session, plan)
        assert session.speculate(plan).introduced > 1
    # the text is gone by the end of the plan, but the widening it caused is not
    plan = RepairPlan("nan-text-delete", None, None, [
        PlanOp(OP_SET_CELLS, (3,), column="x", value=float("nan")),
        PlanOp(OP_SET_CELLS, (4,), column="x", value="abc"),
        PlanOp(OP_DELETE_ROWS, (4,))], description="nan, text, delete")
    session.undo()
    _check(session, plan)
    assert session.speculate(plan).introduced == 1   # row 3's NaN reads as missing


def test_sql_refuses_to_classify_nan():
    backend = make_session("sql").backend
    assert backend.classify("income", [1.0, None, "12k"]) == [1.0, None, "12k"]
    with pytest.raises(ViewMiss):
        backend.classify("income", [float("nan")])


@pytest.mark.parametrize("kind", ["sql", "frame"])
def test_custom_detector_takes_the_write_and_rollback_path(kind):
    session = make_session(kind)
    session.register_detector(
        "senior", lambda df=None, target_column="", error_type_code="": [
            row_id for row_id, age in zip(df["_row_id"], df["age"])
            if age is not None and age > 40])
    session.detect()
    writes = record_writes(session.backend)
    worst = session.anomaly_summary().groups[0].key
    plans = session.suggestion_engine.candidate_plans(worst)
    assert plans
    for plan in plans:
        _check(session, plan)
    assert "set_cells" in writes or "delete_rows" in writes


@pytest.mark.parametrize("kind", ["sql", "frame"])
def test_suggest_writes_nothing(kind):
    session = make_session(kind)
    writes = record_writes(session.backend)
    for group in session.anomaly_summary().groups:
        assert session.suggest(group.key, limit=5)
    assert writes == []
