"""Set-at-a-time detection is exact: after every repair, the engine's answer
for every group equals an independent oracle built from a full dump of the
backend, and every chart series equals a fresh rebuild.

The oracle reads ``backend.to_frame(include_row_ids=True)`` row by row: a
NULL cell is missing, a text cell is a type mismatch, and a number strictly
outside the group's ``[low, high]`` is an outlier.  Thresholds come from the
engine's pinned global stats or the backend's group stats — they are inputs
here, not what is under test.  Candidates arrive in backend row order: row-id
order on the SQL backend, storage order on the frame backend.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BuckarooConfig
from repro.core.preview import build_series
from repro.core.session import BuckarooSession
from repro.core.types import (
    ERROR_MISSING,
    ERROR_OUTLIER,
    ERROR_SMALL_GROUP,
    ERROR_TYPE_MISMATCH,
    OP_SET_CELLS,
    Anomaly,
    PlanOp,
    RepairPlan,
)
from repro.bench.workload import impute_plan, removal_plan
from repro.frame import DataFrame

CATS = ["c", "d"]
NUMS = ["v", "w"]
CATEGORIES = ["a", "b", "c", None]

MESSY = st.one_of(
    st.integers(-50, 50),
    st.floats(-500, 500, allow_nan=False).map(lambda x: round(x, 2)),
    st.sampled_from(["12k", "abc"]),
    st.none(),
)
ROW = st.tuples(
    st.sampled_from(CATEGORIES), st.sampled_from(CATEGORIES[:2] + [None]),
    MESSY, st.one_of(st.integers(0, 100), st.none()),
)
STEPS = st.lists(
    st.tuples(st.sampled_from(["remove", "impute", "relabel", "undo", "speculate"]),
              st.integers(0, 1000)),
    min_size=1, max_size=6,
)


def _oracle(session: BuckarooSession, groups) -> dict:
    """Each group's anomalies, in registry order, from a full dump."""
    backend, ctx, config = session.backend, session.engine.ctx, session.config
    dump = backend.to_frame(include_row_ids=True).to_dict()
    order = sorted if backend.kind == "sql" else list
    cells = {
        col: dict(zip(dump["_row_id"], dump[col])) for col in CATS + NUMS
    }
    found = {}
    for group in groups:
        key = group.key
        member = [row_id for row_id in order(dump["_row_id"])
                  if cells[key.categorical][row_id] == key.category]
        values = [(row_id, cells[key.numerical][row_id]) for row_id in member]
        anomalies = [Anomaly(row_id, key.numerical, ERROR_MISSING, key, None,
                             "null cell")
                     for row_id, value in values if value is None]
        stats = (ctx.group_stats(group) if config.outlier_scope == "group"
                 else ctx.global_stats(key.numerical))
        if stats.has_spread:
            low = stats.mean - config.outlier_sigma * stats.std
            high = stats.mean + config.outlier_sigma * stats.std
            detail = f"outside [{low:.4g}, {high:.4g}] ({config.outlier_scope} scope)"
            anomalies += [
                Anomaly(row_id, key.numerical, ERROR_OUTLIER, key, value, detail)
                for row_id, value in values
                if isinstance(value, (int, float)) and (value < low or value > high)
            ]
        anomalies += [
            Anomaly(row_id, key.numerical, ERROR_TYPE_MISMATCH, key, value,
                    f"non-numeric value {value!r}")
            for row_id, value in values if isinstance(value, str)
        ]
        if group.size < config.min_group_size:
            detail = f"group has {group.size} rows (minimum {config.min_group_size})"
            anomalies += [
                Anomaly(row_id, key.categorical, ERROR_SMALL_GROUP, key,
                        key.category, detail)
                for row_id in group.row_ids
            ]
        found[key] = anomalies
    return found


def _series(series) -> tuple[dict, dict]:
    """``({category: (count, missing)}, {category: mean})``."""
    return (
        dict(zip(series.categories, zip(series.counts, series.missing))),
        dict(zip(series.categories, series.means)),
    )


def _check(session: BuckarooSession) -> None:
    manager = session.group_manager
    groups = list(manager.groups.values())
    oracle = _oracle(session, groups)
    assert session.engine.detect_groups(groups) == oracle
    for (cat, num), series in session.chart_data.items():
        counts, means = _series(series)
        fresh_counts, fresh_means = _series(
            build_series(session.backend, manager, cat, num))
        assert counts == fresh_counts == {
            key.category: (manager.group(key).size,
                           sum(a.error_code == ERROR_MISSING for a in oracle[key]))
            for key in manager.keys_for_pair(cat, num)
        }
        # the SQL stats cache folds every write into a group's mean
        # incrementally, so a rolled-back write may move it by an ulp
        assert means == pytest.approx(fresh_means)


def _step(session: BuckarooSession, op: str, pick: int) -> None:
    rows = sorted(session.backend.all_row_ids())
    if op == "undo":
        if session.history.can_undo:
            session.undo()
        return
    if len(rows) < 2:
        return
    row_id = rows[pick % len(rows)]
    if op == "remove":
        session.apply(removal_plan(row_id))
    elif op in ("impute", "speculate"):
        plan = impute_plan(session, NUMS[pick % 2], row_id)
        if op == "impute":
            session.apply(plan)
        else:
            session.speculate(plan)
    else:  # relabel: move the row to another category (or to missing)
        column = CATS[pick % 2]
        category = CATEGORIES[pick % len(CATEGORIES)]
        session.apply(RepairPlan(
            "test_relabel", None, None,
            [PlanOp(OP_SET_CELLS, (row_id,), column=column, value=category)],
            description=f"relabel row {row_id}",
        ))


@pytest.mark.parametrize("scope", ["global", "group"])
@pytest.mark.parametrize("backend", ["sql", "frame"])
@settings(max_examples=15, deadline=None)
@given(rows=st.lists(ROW, min_size=3, max_size=14), steps=STEPS)
def test_detection_matches_oracle_after_every_repair(backend, scope, rows, steps):
    session = BuckarooSession.from_frame(
        DataFrame.from_rows(rows, CATS + NUMS), backend=backend,
        config=BuckarooConfig(min_group_size=2, outlier_scope=scope,
                              outlier_sigma=1.0),
    )
    session.generate_groups(cat_cols=CATS, num_cols=NUMS)
    session.detect()
    _check(session)
    for op, pick in steps:
        _step(session, op, pick)
        _check(session)
