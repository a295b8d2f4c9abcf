"""Integration tests for BuckarooSession: the full §2 workflow."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workload import impute_plan, removal_plan
from repro.config import BuckarooConfig
from repro.core.engine import ErrorIndex
from repro.core.session import BuckarooSession
from repro.core.types import (
    ERROR_MISSING,
    ERROR_OUTLIER,
    ERROR_TYPE_MISMATCH,
    GroupKey,
)
from repro.errors import BuckarooError, HistoryError
from repro.frame import DataFrame

from tests.test_backends import COLUMNS, ROWS


def make_session(backend: str, outlier_scope: str = "global") -> BuckarooSession:
    session = BuckarooSession.from_frame(
        DataFrame.from_rows(ROWS, COLUMNS), backend=backend,
        config=BuckarooConfig(min_group_size=2, outlier_scope=outlier_scope),
    )
    session.generate_groups(cat_cols=["country", "degree"],
                            num_cols=["income", "age"])
    session.detect()
    return session


@pytest.fixture(params=["sql", "frame"])
def session(request):
    return make_session(request.param)


class TestDetection:
    def test_summary_totals(self, session):
        summary = session.anomaly_summary()
        codes = {e.code: e.count for e in summary.error_types}
        assert codes[ERROR_MISSING] == 2        # row 6 in two charts
        assert codes[ERROR_TYPE_MISMATCH] == 2  # row 3 in two charts
        assert codes[ERROR_OUTLIER] >= 2        # row 4's income in two charts

    def test_worst_group_is_bhutan_income(self, session):
        worst = session.anomaly_summary().groups[0]
        assert worst.key == GroupKey("country", "Bhutan", "income")

    def test_series_built_for_all_pairs(self, session):
        for pair in session.pairs():
            series = session.series(*pair)
            assert series.categories


class TestApply:
    def test_apply_reduces_anomalies(self, session):
        worst = session.anomaly_summary().groups[0].key
        suggestion = session.suggest(worst)[0]
        before = session.anomaly_summary().total
        result = session.apply(suggestion)
        assert result.resolved > 0
        assert session.anomaly_summary().total == before - result.resolved + result.introduced

    def test_apply_refreshes_only_affected_series(self, session):
        seen = []
        session.add_view_listener(lambda pairs: seen.extend(pairs))
        worst = session.anomaly_summary().groups[0].key
        session.apply(session.suggest(worst, limit=1)[0])
        assert seen  # affected charts notified
        assert all(isinstance(pair, tuple) for pair in seen)

    def test_apply_result_timing_populated(self, session):
        worst = session.anomaly_summary().groups[0].key
        result = session.apply(session.suggest(worst, limit=1)[0])
        assert result.backend_seconds > 0
        assert result.replot_seconds > 0
        assert result.total_seconds == pytest.approx(
            result.backend_seconds + result.replot_seconds
        )

    def test_apply_rejects_garbage(self, session):
        with pytest.raises(BuckarooError, match="RepairPlan"):
            session.apply("not a plan")

    def test_snapshot_store_grows(self, session):
        worst = session.anomaly_summary().groups[0].key
        session.apply(session.suggest(worst, limit=1)[0])
        assert len(session.snapshot_store) == 1

    def test_cache_flushes_on_interval(self, session):
        flushes_before = session.write_cache.total_flushes
        for _ in range(3):
            worst = session.anomaly_summary().groups
            if not worst:
                break
            session.apply(session.suggest(worst[0].key, limit=1)[0])
        assert session.write_cache.total_updates >= 1
        assert session.write_cache.total_flushes >= flushes_before


class TestUndoRedo:
    def _state(self, session):
        backend = session.backend
        return {
            row_id: backend.row(row_id) for row_id in backend.all_row_ids()
        }

    def test_undo_restores_data_and_index(self, session):
        state_before = self._state(session)
        total_before = session.anomaly_summary().total
        worst = session.anomaly_summary().groups[0].key
        session.apply(session.suggest(worst, limit=1)[0])
        session.undo()
        assert self._state(session) == state_before
        assert session.anomaly_summary().total == total_before

    def test_redo_reapplies(self, session):
        worst = session.anomaly_summary().groups[0].key
        session.apply(session.suggest(worst, limit=1)[0])
        state_after = self._state(session)
        total_after = session.anomaly_summary().total
        session.undo()
        session.redo()
        assert self._state(session) == state_after
        assert session.anomaly_summary().total == total_after

    def test_undo_without_history(self, session):
        with pytest.raises(HistoryError):
            session.undo()

    def test_figure1_narrative(self, session):
        """Lou's session: remove outliers -> too aggressive -> undo -> impute."""
        bhutan = GroupKey("country", "Bhutan", "income")
        rows_before = session.backend.row_count()
        suggestions = session.suggest(bhutan, error_code=ERROR_OUTLIER)
        deletion = next(
            s for s in suggestions if s.plan.wrangler_code == "delete_rows"
        )
        session.apply(deletion)
        assert session.backend.row_count() < rows_before
        session.undo()  # "removing outliers removes too many points, I'll undo"
        assert session.backend.row_count() == rows_before
        imputation = next(
            s for s in session.suggest(bhutan, error_code=ERROR_OUTLIER)
            if s.plan.wrangler_code.startswith("impute")
        )
        result = session.apply(imputation)
        assert session.backend.row_count() == rows_before  # no points lost
        assert result.resolved > 0


class TestCascadeVisibility:
    def test_error_substitution_reported_as_resolved_plus_introduced(self):
        """§1: "fixing one data anomaly can lead to other anomalies".

        Converting a dirty spelling whose parsed value is itself an outlier
        swaps error classes within the same groups — the counts don't move,
        but the apply result must still report both directions.
        """
        rows = [
            ("Bhutan", "BS", 10.0, 34),
            ("Bhutan", "MS", 12.0, 29),
            ("Bhutan", "BS", "9k", 41),    # parses to 9000 -> huge outlier
            ("Lesotho", "PhD", 11.0, 35),
            ("Lesotho", "BS", 13.0, 52),
            ("Lesotho", "MS", 9.0, 44),
        ]
        session = BuckarooSession.from_frame(
            DataFrame.from_rows(rows, COLUMNS), backend="sql",
            config=BuckarooConfig(min_group_size=2),
        )
        session.generate_groups(cat_cols=["country"], num_cols=["income"])
        session.detect()
        bhutan = GroupKey("country", "Bhutan", "income")
        conversion = next(
            s for s in session.suggest(bhutan, error_code=ERROR_TYPE_MISMATCH,
                                       score_plans=False)
            if s.plan.wrangler_code == "convert_type"
        )
        result = session.apply(conversion)
        assert result.resolved >= 1    # the mismatch disappeared
        assert result.introduced >= 1  # ... and a 9000 outlier appeared
        codes = {a.error_code for a in session.anomalies(bhutan)}
        assert ERROR_OUTLIER in codes
        assert ERROR_TYPE_MISMATCH not in codes


class TestSpeculation:
    def test_speculate_leaves_no_trace(self, session):
        worst = session.anomaly_summary().groups[0].key
        plan = session.suggestion_engine.candidate_plans(worst)[0]
        state_before = {
            row_id: session.backend.row(row_id)
            for row_id in session.backend.all_row_ids()
        }
        total_before = session.anomaly_summary().total
        outcome = session.speculate(plan)
        assert outcome.resolved > 0
        state_after = {
            row_id: session.backend.row(row_id)
            for row_id in session.backend.all_row_ids()
        }
        assert state_after == state_before
        assert session.anomaly_summary().total == total_before

    def test_preview_has_before_and_after(self, session):
        bhutan = GroupKey("country", "Bhutan", "income")
        suggestion = session.suggest(bhutan, limit=1)[0]
        preview = session.preview(suggestion)
        assert preview.before.pair == ("country", "income")
        assert preview.after.pair == ("country", "income")
        assert preview.before.categories  # non-empty series
        # previewing leaves the data untouched
        assert session.backend.row_count() == 9

    def test_suggestions_ranked_by_score(self, session):
        worst = session.anomaly_summary().groups[0].key
        suggestions = session.suggest(worst)
        scores = [s.score for s in suggestions]
        assert scores == sorted(scores, reverse=True)
        assert [s.rank for s in suggestions] == list(range(1, len(suggestions) + 1))

    def test_suggestions_without_scoring(self, session):
        worst = session.anomaly_summary().groups[0].key
        suggestions = session.suggest(worst, score_plans=False)
        assert all(s.score == 0 for s in suggestions)


class TestCrossBackendEquivalence:
    def test_same_anomalies_both_backends(self):
        sql = make_session("sql")
        frame = make_session("frame")
        assert sql.anomaly_summary().total == frame.anomaly_summary().total
        sql_counts = {e.code: e.count for e in sql.anomaly_summary().error_types}
        frame_counts = {e.code: e.count for e in frame.anomaly_summary().error_types}
        assert sql_counts == frame_counts

    def test_same_apply_outcome_both_backends(self):
        sql = make_session("sql")
        frame = make_session("frame")
        key = GroupKey("country", "Bhutan", "income")
        sql_result = sql.apply(sql.suggest(key, limit=1)[0])
        frame_result = frame.apply(frame.suggest(key, limit=1)[0])
        assert sql_result.resolved == frame_result.resolved
        assert sql_result.introduced == frame_result.introduced
        assert sql.anomaly_summary().total == frame.anomaly_summary().total


class TestUnorderableCategories:
    """A missing or mixed-type category cell must not break the sorts the
    workflow runs over group keys (ranking, overlap, re-detection)."""

    INCOME = [1.0, None, 3.0, 1.0, None, 2.0, 1.0, None, 5.0]

    @pytest.mark.parametrize("backend", ["sql", "frame"])
    @pytest.mark.parametrize("categories", [
        ["a", "a", "a", None, None, None, "b", "b", "b"],
        [1, 1, 1, "x", "x", "x", None, None, None],
    ], ids=["missing", "int-vs-str"])
    def test_detect_suggest_apply_undo(self, backend, categories):
        session = BuckarooSession.from_frame(
            DataFrame.from_dict({"cat": categories, "income": self.INCOME}),
            backend=backend,
        )
        session.generate_groups(cat_cols=["cat"], num_cols=["income"])
        # the three groups tie on (weighted, count), so ranking falls
        # through to comparing the keys themselves
        before = session.detect()
        ranked = [g.key for g in before.groups]
        assert len(ranked) == 3 and ranked == sorted(ranked)
        assert ranked[0].category is None
        assert len(list(session.overlap.edges())) == 0
        result = session.apply(session.suggest(ranked[0])[0])
        assert result.resolved > 0
        session.undo()
        after = session.anomaly_summary()
        assert after.total == before.total
        assert [g.key for g in after.groups] == ranked

    def test_group_key_total_order(self):
        keys = [GroupKey("c", "x", "n"), GroupKey("c", 2, "n"),
                GroupKey("c", None, "n"), GroupKey("c", 1.5, "n"),
                GroupKey("b", "z", "n")]
        assert [k.category for k in sorted(keys)] == ["z", None, 1.5, 2, "x"]


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=4), st.booleans())
def test_property_undo_all_restores_initial_state(choices, use_sql):
    """Any applied sequence followed by full undo is an identity."""
    session = make_session("sql" if use_sql else "frame")
    initial = {
        row_id: session.backend.row(row_id)
        for row_id in session.backend.all_row_ids()
    }
    initial_total = session.anomaly_summary().total
    applied = 0
    for choice in choices:
        groups = session.anomaly_summary().groups
        if not groups:
            break
        key = groups[choice % len(groups)].key
        suggestions = session.suggest(key, limit=3, score_plans=False)
        if not suggestions:
            continue
        session.apply(suggestions[choice % len(suggestions)])
        applied += 1
    for _ in range(applied):
        session.undo()
    final = {
        row_id: session.backend.row(row_id)
        for row_id in session.backend.all_row_ids()
    }
    assert final == initial
    assert session.anomaly_summary().total == initial_total


def _index_state(index: ErrorIndex) -> dict:
    # values compare with ==: a rolled-back impute leaves the frame backend's
    # int column widened to float64, so it reads 52 back as 52.0
    return {
        key: sorted((a.row_id, a.error_code, a.column, a.value, a.detail)
                    for a in index.anomalies(key))
        for key in index.groups_with_errors()
    }


def _redetected_from_scratch(session: BuckarooSession) -> dict:
    """Every group re-detected into a fresh index, against the pinned stats."""
    fresh = ErrorIndex()
    groups = session.group_manager.groups.values()
    for key, anomalies in session.engine.detect_groups(groups).items():
        fresh.replace_group(key, anomalies)
    return _index_state(fresh)


class TestLocalizedRedetection:
    """Re-detecting only the groups a repair can change loses nothing: the
    index always equals a from-scratch pass, and scoring a plan without
    writing the index agrees with applying and undoing it."""

    STEPS = st.lists(
        st.tuples(st.sampled_from(
            ["suggest", "preview", "apply", "undo", "redo", "remove", "impute"]),
            st.integers(0, 50)),
        min_size=1, max_size=6,
    )

    @pytest.mark.parametrize("scope", ["global", "group"])
    @pytest.mark.parametrize("backend", ["sql", "frame"])
    @settings(max_examples=8, deadline=None)
    @given(steps=STEPS)
    def test_random_sequences_match_full_redetection(self, backend, scope, steps):
        session = make_session(backend, outlier_scope=scope)
        for op, pick in steps:
            self._step(session, op, pick)
            assert _index_state(session.engine.index) == _redetected_from_scratch(session)

    @staticmethod
    def _step(session: BuckarooSession, op: str, pick: int) -> None:
        groups = session.anomaly_summary().groups
        rows = sorted(session.backend.all_row_ids())
        if op == "undo" and session.history.can_undo:
            session.undo()
        elif op == "redo" and session.history.can_redo:
            session.redo()
        elif op == "remove" and len(rows) > 1:
            session.apply(removal_plan(rows[pick % len(rows)]))
        elif op == "impute" and rows:
            column = ("income", "age")[pick % 2]
            session.apply(impute_plan(session, column, rows[pick % len(rows)]))
        elif op in ("suggest", "preview", "apply") and groups:
            key = groups[pick % len(groups)].key
            suggestions = session.suggest(key)
            if not suggestions:
                return
            plan = suggestions[pick % len(suggestions)].plan
            if op == "preview":
                session.preview(plan)
            elif op == "apply":
                speculated = session.speculate(plan)
                applied = session.apply(plan)
                undone = session.undo()
                assert (speculated.resolved, speculated.introduced) == (
                    applied.resolved, applied.introduced)
                assert (undone.resolved, undone.introduced) == (
                    applied.introduced, applied.resolved)
                session.redo()

    def test_undeclared_detector_keeps_the_wide_scope(self, session):
        """A custom detector reading another column is not ``local``, so an
        impute of that column must still re-run it on the row's groups."""
        def old_earners(df=None, target_column="", error_type_code=""):
            if target_column != "income":
                return []
            return [row_id for row_id, age in zip(df["_row_id"], df["age"])
                    if age is not None and age > 40]

        session.register_detector("old_earner", old_earners)
        session.detect()
        bhutan = GroupKey("country", "Bhutan", "income")
        flagged = {a.row_id for a in session.anomalies(bhutan)
                   if a.error_code == "old_earner"}
        assert flagged == {3}
        session.apply(impute_plan(session, "age", 3))  # the mean age is < 40
        flagged = {a.row_id for a in session.anomalies(bhutan)
                   if a.error_code == "old_earner"}
        assert flagged == set()
        assert _index_state(session.engine.index) == _redetected_from_scratch(session)
