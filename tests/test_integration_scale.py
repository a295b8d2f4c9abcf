"""Medium-scale integration: the full workflow on generated datasets.

Exercises the complete pipeline (load, group, detect, suggest, apply,
undo, export, re-execute) on a few hundred generated rows, asserting
cross-backend equivalence and codegen fidelity — the closest thing to the
paper's end-to-end deployment story that runs in CI time.  Cases marked
``slow`` run the same checks at the paper's x1 scale; ``pytest.ini``
deselects them and CI's paper-scale job runs them (``-m slow -s``).
"""

import time

import pytest

from repro.codegen import generate_script
from repro.core.session import BuckarooSession
from repro.core.types import ERROR_SMALL_GROUP, GroupKey
from repro.datasets import load_dataset
from repro.ui import BuckarooApp, events

from tests.test_speculation_write_free import record_writes

CATS = ["country", "ed_level"]
NUMS = ["converted_comp_yearly", "years_code"]


def build_session(backend: str) -> BuckarooSession:
    frame, _truth = load_dataset("stackoverflow", scale=0.01, seed=23)
    session = BuckarooSession.from_frame(frame, backend=backend)
    session.generate_groups(cat_cols=CATS, num_cols=NUMS)
    session.detect()
    return session


class TestCrossBackendAtScale:
    def test_identical_detection(self):
        sql = build_session("sql")
        frame = build_session("frame")
        sql_counts = {e.code: e.count for e in sql.anomaly_summary().error_types}
        frame_counts = {
            e.code: e.count for e in frame.anomaly_summary().error_types
        }
        assert sql_counts == frame_counts
        assert sql_counts  # the injector guarantees anomalies exist

    @pytest.mark.parametrize("dataset", ["stackoverflow", "chicago_crime", "adult_income"])
    def test_default_columns_agree(self, dataset):
        """With no columns passed, both backends pick the same roles, build
        the same groups and find the same anomalies."""
        frame, _truth = load_dataset(dataset, scale=0.01, seed=7)
        seen = {}
        for backend in ("sql", "frame"):
            session = BuckarooSession.from_frame(frame, backend=backend)
            keys = session.generate_groups()
            summary = session.detect()
            seen[backend] = (
                session.backend.categorical_columns(session.config.max_categories),
                session.backend.numerical_columns(),
                sorted(keys),
                summary.total,
                {e.code: e.count for e in summary.error_types},
            )
        assert seen["sql"] == seen["frame"]

    def test_identical_final_tables_after_pipeline(self):
        outcomes = {}
        for backend in ("sql", "frame"):
            session = build_session(backend)
            applied = 0
            while applied < 4:
                groups = session.anomaly_summary().groups
                if not groups:
                    break
                target = next(
                    (g for g in groups if g.dominant_code != ERROR_SMALL_GROUP),
                    groups[0],
                )
                suggestions = session.suggest(target.key, limit=1,
                                              score_plans=False)
                if not suggestions:
                    break
                session.apply(suggestions[0])
                applied += 1
            outcomes[backend] = (
                session.backend.to_frame().to_rows(),
                session.anomaly_summary().total,
            )
        sql_rows, sql_total = outcomes["sql"]
        frame_rows, frame_total = outcomes["frame"]
        assert sorted(map(repr, sql_rows)) == sorted(map(repr, frame_rows))
        assert sql_total == frame_total


@pytest.mark.slow
class TestPaperScale:
    """x1 StackOverflow survey (38k rows), chart columns 2 cat x 2 num."""

    # the largest chart group (~8.6k rows): ROADMAP's "Suggest at paper scale"
    LARGEST = GroupKey("country", "United States", "converted_comp_yearly")

    def test_largest_group_suggest(self):
        frame, _truth = load_dataset("stackoverflow", scale=1.0, seed=7)
        ranked = {}
        for backend in ("sql", "frame"):
            session = BuckarooSession.from_frame(frame, backend=backend)
            session.generate_groups(cat_cols=CATS, num_cols=NUMS)
            session.detect()
            writes = record_writes(session.backend)
            start = time.process_time()
            suggestions = session.suggest(self.LARGEST, limit=5)
            print(f"\n{backend}: suggest(limit=5) on {self.LARGEST.describe()} "
                  f"({session.group(self.LARGEST).size} rows): "
                  f"{time.process_time() - start:.2f} s CPU")
            assert writes == []   # scored without writing the backend
            ranked[backend] = [
                (s.plan.wrangler_code, s.plan.description, s.score,
                 s.resolved, s.introduced, s.rank)
                for s in suggestions
            ]
            # scoring a plan must agree with applying and undoing it
            total = session.anomaly_summary().total
            plan = suggestions[0].plan
            speculated = session.speculate(plan)
            applied = session.apply(plan)
            session.undo()
            assert (speculated.resolved, speculated.introduced) == (
                applied.resolved, applied.introduced)
            assert session.anomaly_summary().total == total
        assert len(ranked["sql"]) == 5
        assert ranked["sql"] == ranked["frame"]


class TestScriptFidelityAtScale:
    @pytest.mark.parametrize("backend", ["sql", "frame"])
    def test_exported_script_reproduces_final_table(self, backend):
        frame, _truth = load_dataset("stackoverflow", scale=0.01, seed=29)
        session = BuckarooSession.from_frame(frame, backend=backend)
        session.generate_groups(cat_cols=CATS, num_cols=NUMS)
        session.detect()
        for _ in range(3):
            groups = session.anomaly_summary().groups
            if not groups:
                break
            target = next(
                (g for g in groups if g.dominant_code != ERROR_SMALL_GROUP),
                groups[0],
            )
            suggestions = session.suggest(target.key, limit=1, score_plans=False)
            if not suggestions:
                break
            session.apply(suggestions[0])
        script = generate_script(session.history.records(), target="python")
        namespace: dict = {"__name__": "generated"}
        exec(compile(script, "<generated>", "exec"), namespace)
        regenerated = namespace["wrangle"](frame)
        assert regenerated.to_rows() == session.backend.to_frame().to_rows()


class TestFailureInjection:
    def test_failing_custom_wrangler_leaves_no_partial_state(self):
        session = build_session("sql")
        worst = session.anomaly_summary().groups[0].key
        state_before = {
            row_id: session.backend.row(row_id)
            for row_id in session.backend.all_row_ids()
        }

        class ExplodingOp:
            """Duck-typed op whose row access fails mid-plan."""

            kind = "delete_rows"
            row_ids = (99999999,)  # nonexistent row -> backend raises later?

        # a two-op plan whose second op raises: first op must be rolled back
        from repro.core.types import OP_DELETE_ROWS, OP_SET_CELLS, PlanOp, RepairPlan
        from repro.errors import ReproError

        group = session.group(worst)
        victim = group.row_ids[0]
        bad_plan = RepairPlan(
            wrangler_code="custom",
            group_key=worst,
            error_code=None,
            ops=[
                PlanOp(OP_DELETE_ROWS, (victim,)),
                PlanOp(OP_SET_CELLS, (victim,), column="nonexistent_column",
                       value=1),
            ],
            description="doomed plan",
        )
        with pytest.raises(Exception):
            session.apply(bad_plan)
        state_after = {
            row_id: session.backend.row(row_id)
            for row_id in session.backend.all_row_ids()
        }
        assert state_after == state_before
        assert not session.history.can_undo  # nothing was committed

    def test_full_ui_session_remains_usable_after_failure(self):
        app = BuckarooApp(build_session("sql"))
        worst = app.session.anomaly_summary().groups[0].key
        suggestions = app.handle(events.RequestSuggestions(worst, limit=2))
        assert suggestions
        result = app.handle(events.ApplyRepair(suggestions[0].rank))
        assert result.rows_affected >= 0
        app.handle(events.Undo())
