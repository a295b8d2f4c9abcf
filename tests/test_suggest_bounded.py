"""Best-bound-first suggestion scoring returns exhaustive scoring's top k.

``SuggestionEngine.suggest(key, limit=k)`` scores plans in order of an
admissible bound and stops at the k-th; the list it returns must equal
``suggest(key)[:k]`` field for field.  When the bound cannot be proven it
must score every plan.  Planning reads each group's numbers once per call
and never reuses them across calls.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BuckarooConfig
from repro.core.inference import CellEdit, TransformInference
from repro.core.session import BuckarooSession
from repro.core.types import ERROR_MISSING, ERROR_SMALL_GROUP, GroupKey
from repro.frame import DataFrame
from repro.frame.parsing import coerce_to_number

from tests.test_backends import COLUMNS, ROWS
from tests.test_core_session import make_session
from tests.test_speculation_write_free import ROW, _session


def _dump(suggestions) -> list:
    return [(s.rank, s.plan.wrangler_code, s.plan.error_code, s.score, s.resolved,
             s.introduced, s.plan.description, repr(s.plan.ops))
            for s in suggestions]


def _assert_top_k_exact(session: BuckarooSession) -> None:
    """Every anomalous group, every limit from 1 to one past the list."""
    for key in session.engine.index.groups_with_errors():
        everything = _dump(session.suggest(key))
        for limit in range(1, len(everything) + 2):
            assert _dump(session.suggest(key, limit=limit)) == everything[:limit], (
                key, limit)


def count_speculations(session: BuckarooSession) -> list:
    """Records every plan ``session.speculate`` scores from now on."""
    scored: list = []
    speculate = session.speculate

    def counted(plan):
        scored.append(plan)
        return speculate(plan)

    session.speculate = counted
    return scored


HISTORY = st.lists(st.tuples(st.sampled_from(["apply", "undo", "redo"]),
                             st.integers(0, 50)), max_size=4)


@pytest.mark.parametrize("scope", ["global", "group"])
@pytest.mark.parametrize("kind", ["sql", "frame"])
@settings(max_examples=25, deadline=None)
@given(rows=st.lists(ROW, min_size=3, max_size=16), history=HISTORY)
def test_bounded_suggest_equals_exhaustive(kind, scope, rows, history):
    session = _session(kind, scope, rows)
    for op, pick in history:
        if op == "undo" and session.history.can_undo:
            session.undo()
        elif op == "redo" and session.history.can_redo:
            session.redo()
        elif op == "apply":
            groups = session.anomaly_summary().groups
            if not groups:
                continue
            menu = session.suggest(groups[pick % len(groups)].key, score_plans=False)
            if menu:
                session.apply(menu[pick % len(menu)])
    _assert_top_k_exact(session)


@pytest.mark.parametrize("kind", ["sql", "frame"])
def test_ties_across_error_codes_break_on_candidate_order(kind):
    """Bhutan's income group has an outlier (row 4) and a mismatch (row 3);
    ``impute_mean`` repairs either for a score of 2.  The outlier's plan is
    proposed first, so it ranks 4th and the mismatch's 5th: a limit of 4
    must stop between the two without scoring the rest."""
    session = make_session(kind)
    key = GroupKey("country", "Bhutan", "income")
    everything = session.suggest(key)
    fourth, fifth = everything[3], everything[4]
    assert (fourth.plan.wrangler_code, fourth.score) == (fifth.plan.wrangler_code,
                                                         fifth.score)
    assert (fourth.plan.error_code, fifth.plan.error_code) == ("outlier",
                                                              "type_mismatch")
    scored = count_speculations(session)
    assert _dump(session.suggest(key, limit=4)) == _dump(everything[:4])
    assert len(scored) < len(everything)
    _assert_top_k_exact(session)


@pytest.mark.parametrize("kind", ["sql", "frame"])
def test_counters_show_the_pruning(kind):
    session = make_session(kind)
    engine = session.suggestion_engine
    worst = session.anomaly_summary().groups[0].key
    built, scored = engine.plans_built, engine.plans_scored
    assert len(session.suggest(worst, limit=1)) == 1
    assert engine.plans_built - built == len(session.suggest(worst, score_plans=False))
    assert 0 < engine.plans_scored - scored < engine.plans_built - built


def _assert_scores_every_plan(session: BuckarooSession, key: GroupKey) -> None:
    plans = session.suggestion_engine.candidate_plans(key)
    scored = count_speculations(session)
    assert len(session.suggest(key, limit=1)) == 1
    assert len(scored) == len(plans) > 1


@pytest.mark.parametrize("kind", ["sql", "frame"])
def test_group_scope_scores_every_plan(kind):
    session = make_session(kind, outlier_scope="group")
    _assert_scores_every_plan(session, session.anomaly_summary().groups[0].key)


@pytest.mark.parametrize("kind", ["sql", "frame"])
def test_function_detector_scores_every_plan(kind):
    session = make_session(kind)
    session.register_detector(
        "never", lambda df=None, target_column="", error_type_code="": [])
    session.detect()
    _assert_scores_every_plan(session, GroupKey("country", "Bhutan", "income"))


@pytest.mark.parametrize("kind", ["sql", "frame"])
def test_merge_small_group_candidate_scores_every_plan(kind):
    """Nauru and Other are both below ``min_group_size``.  Relabelling Nauru
    as Other lifts Other to two rows and clears Other's own anomalies, which
    no op of the plan names: the merge scores 4 and the delete 2, although
    the merge writes no numerical column."""
    session = BuckarooSession.from_frame(
        DataFrame.from_rows(ROWS + [("Other", "MS", 60000.0, 40)], COLUMNS),
        backend=kind, config=BuckarooConfig(min_group_size=2))
    session.generate_groups(cat_cols=["country", "degree"], num_cols=["income", "age"])
    session.detect()
    key = GroupKey("country", "Nauru", "income")
    assert {a.error_code for a in session.anomalies(key)} == {ERROR_SMALL_GROUP}
    assert [(s.plan.wrangler_code, s.score) for s in session.suggest(key)] == [
        ("merge_small_group", 4.0), ("delete_rows", 2.0)]
    _assert_scores_every_plan(session, key)
    _assert_top_k_exact(session)


@pytest.mark.parametrize("kind", ["sql", "frame"])
def test_planning_reads_a_group_once_per_call(kind):
    """Bhutan's income group has two error codes, each with three impute
    wranglers: one ``values`` read of the group serves all six."""
    session = make_session(kind)
    key = GroupKey("country", "Bhutan", "income")
    rows = session.group(key).row_ids
    reads: list = []
    values = session.backend.values

    def spy(column, row_ids):
        reads.append((column, tuple(row_ids)))
        return values(column, row_ids)

    session.backend.values = spy
    session.suggestion_engine.candidate_plans(key)
    assert reads.count(("income", tuple(rows))) == 1
    reads.clear()
    TransformInference(session).infer([CellEdit(3, "income", 12000.0)], key)
    assert reads.count(("income", tuple(rows))) == 1


@pytest.mark.parametrize("kind", ["sql", "frame"])
def test_group_numbers_match_a_per_row_read(kind):
    """The per-call read, filtered, equals parsing each kept row's cell."""
    session = make_session(kind)
    ctx = session.wrangling_ctx.per_call()
    for key, group in session.group_manager.groups.items():
        for exclude in (None, set(group.row_ids[::2])):
            cells = [session.backend.values(key.numerical, [row_id])[0]
                     for row_id in group.row_ids if row_id not in (exclude or ())]
            expected = [n for n in map(coerce_to_number, cells) if n is not None]
            assert ctx.group_numeric_values(group, exclude).tolist() == expected


def _fresh_session(session: BuckarooSession, kind: str) -> BuckarooSession:
    """A new session over ``session``'s current rows (same row ids)."""
    backend = session.backend
    ids = sorted(backend.all_row_ids())
    assert ids == list(range(1, len(ids) + 1))
    rows = [tuple(backend.row(row_id)[column] for column in COLUMNS) for row_id in ids]
    fresh = BuckarooSession.from_frame(
        DataFrame.from_rows(rows, COLUMNS), backend=kind, config=session.config)
    fresh.generate_groups(cat_cols=["country", "degree"], num_cols=["income", "age"])
    fresh.detect()
    return fresh


@pytest.mark.parametrize("kind", ["sql", "frame"])
def test_no_numbers_outlive_an_apply(kind):
    """Suggest, apply a mean impute of the group's missing cell, suggest
    again: the mode and median now see the imputed value, exactly as a
    fresh session over the same rows does."""
    session = make_session(kind)
    key = GroupKey("degree", "BS", "income")
    edits = [CellEdit(3, "income", 12000.0)]
    session.suggest(key, limit=5)
    TransformInference(session).infer(edits, key)
    impute = next(s for s in session.suggest(key)
                  if (s.plan.wrangler_code, s.plan.error_code)
                  == ("impute_mean", ERROR_MISSING))
    session.apply(impute)
    session.detect()  # recalibrate the pinned stats, as a fresh session has them
    fresh = _fresh_session(session, kind)
    for limit in (None, 5):
        assert _dump(session.suggest(key, limit=limit)) == \
            _dump(fresh.suggest(key, limit=limit))
    inferred = [(r.plan.wrangler_code, r.plan.description, r.consistent, r.generality)
                for r in TransformInference(session).infer(edits, key)]
    assert inferred == [(r.plan.wrangler_code, r.plan.description, r.consistent,
                         r.generality)
                        for r in TransformInference(fresh).infer(edits, key)]
