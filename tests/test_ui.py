"""Tests for the headless UI: app, repair kit, summary, protocol server."""

import json

import pytest

from repro.config import BuckarooConfig
from repro.core.session import BuckarooSession
from repro.core.types import GroupKey
from repro.errors import BuckarooError
from repro.frame import DataFrame
from repro.ui import BuckarooApp, BuckarooServer, events
from repro.ui.protocol import decode_group_key, decode_request, encode_group_key

from tests.test_backends import COLUMNS, ROWS

BHUTAN = GroupKey("country", "Bhutan", "income")


def make_app(backend="sql", drilldown=None) -> BuckarooApp:
    session = BuckarooSession.from_frame(
        DataFrame.from_rows(ROWS, COLUMNS), backend=backend,
        config=BuckarooConfig(min_group_size=2),
    )
    session.generate_groups(cat_cols=["country", "degree"],
                            num_cols=["income", "age"])
    session.detect()
    return BuckarooApp(session, drilldown_hierarchy=drilldown)


class TestApp:
    def test_auto_setup_when_session_fresh(self):
        session = BuckarooSession.from_frame(
            DataFrame.from_rows(ROWS, COLUMNS), backend="frame",
        )
        app = BuckarooApp(session)
        assert session.groups()
        assert len(app.matrix) > 0

    def test_select_then_suggest_then_apply(self):
        app = make_app()
        app.handle(events.SelectGroup(BHUTAN))
        assert app.selection.selected == BHUTAN
        suggestions = app.handle(events.RequestSuggestions(BHUTAN, limit=3))
        assert suggestions and app.repair_kit.is_open
        preview = app.handle(events.PreviewRepair(1))
        assert preview.before.categories
        result = app.handle(events.ApplyRepair(1))
        assert result.rows_affected > 0
        assert not app.repair_kit.is_open
        assert app.selection.selected is None

    def test_undo_redo_events(self):
        app = make_app()
        app.handle(events.RequestSuggestions(BHUTAN, limit=1))
        app.handle(events.ApplyRepair(1))
        rows_after = app.session.backend.row_count()
        app.handle(events.Undo())
        assert app.session.backend.row_count() >= rows_after
        app.handle(events.Redo())
        assert app.session.backend.row_count() == rows_after

    def test_export_script_event(self):
        app = make_app()
        script = app.handle(events.ExportScript())
        assert "def wrangle" in script

    def test_drilldown_events(self):
        app = make_app(drilldown=["country", "degree"])
        view = app.handle(events.DrillDown("Bhutan"))
        assert view.column == "degree"
        row_id = app.drilldown.visible_row_ids(limit=1)[0]
        refreshed, seconds = app.handle(events.RemoveVisibleRow(row_id))
        assert seconds > 0
        assert sum(n for _, n in refreshed.bars) == 3
        app.handle(events.RollUp())

    def test_removed_row_leaves_the_session_groups(self):
        app = make_app(drilldown=["country", "degree"])
        app.handle(events.RemoveVisibleRow(1))
        assert app.session.group(BHUTAN).row_ids == (2, 3, 4)
        assert app.session.group_manager.groups_of_rows([1]) == set()
        # suggestions speculate over the group: they must see live rows only
        app.handle(events.RequestSuggestions(BHUTAN))
        app.handle(events.RemoveVisibleRow(1))  # already gone: nothing to do
        assert app.session.group(BHUTAN).row_ids == (2, 3, 4)

    def test_drilldown_requires_sql_backend(self):
        with pytest.raises(BuckarooError, match="SQL backend"):
            make_app(backend="frame", drilldown=["country"])

    def test_drilldown_unconfigured(self):
        app = make_app()
        with pytest.raises(BuckarooError, match="drill-down"):
            app.handle(events.DrillDown("Bhutan"))

    def test_unknown_event(self):
        app = make_app()
        with pytest.raises(BuckarooError, match="unknown event"):
            app.handle(object())

    def test_summary_and_chart_text(self):
        app = make_app()
        assert "Anomaly Summary" in app.summary_text()
        assert "Bhutan" in app.chart_text("country", "income")

    def test_event_log_records_everything(self):
        app = make_app()
        app.handle(events.SelectGroup(BHUTAN))
        app.handle(events.ExportScript())
        assert len(app.event_log) == 2


class TestRepairKit:
    def test_rank_resolution(self):
        app = make_app()
        app.repair_kit.open_for(BHUTAN, limit=3)
        first = app.repair_kit.suggestion(1)
        assert first.rank == 1
        with pytest.raises(BuckarooError, match="no suggestion"):
            app.repair_kit.suggestion(99)

    def test_describe_lines(self):
        app = make_app()
        app.repair_kit.open_for(BHUTAN, limit=2)
        lines = app.repair_kit.describe()
        assert len(lines) == 2
        assert lines[0].startswith("1.")


class TestProtocol:
    def test_group_key_roundtrip(self):
        payload = encode_group_key(BHUTAN)
        assert decode_group_key(payload) == BHUTAN

    def test_malformed_key(self):
        with pytest.raises(BuckarooError):
            decode_group_key({"categorical": "x"})

    def test_decode_known_requests(self):
        kind, event = decode_request(json.dumps({
            "type": "select_group", "key": encode_group_key(BHUTAN),
        }))
        assert kind == "select_group"
        assert event.key == BHUTAN

    def test_decode_rejects_unknown(self):
        with pytest.raises(BuckarooError, match="unknown request"):
            decode_request(json.dumps({"type": "rm -rf"}))
        with pytest.raises(BuckarooError, match="not valid JSON"):
            decode_request("{nope")


class TestServer:
    @pytest.fixture
    def server(self):
        return BuckarooServer(make_app(drilldown=["country", "degree"]))

    def _call(self, server, message: dict) -> dict:
        return json.loads(server.handle_request(json.dumps(message)))

    def test_summary_roundtrip(self, server):
        response = self._call(server, {"type": "summary", "limit": 3})
        assert response["ok"]
        assert "Anomaly Summary" in response["payload"][0]

    def test_full_wrangling_round_trip(self, server):
        response = self._call(server, {
            "type": "request_suggestions",
            "key": encode_group_key(BHUTAN), "limit": 2,
        })
        assert response["ok"] and len(response["payload"]) == 2
        applied = self._call(server, {"type": "apply_repair", "rank": 1})
        assert applied["ok"]
        assert applied["payload"]["rows_affected"] > 0
        undone = self._call(server, {"type": "undo"})
        assert undone["ok"]

    def test_drill_down_round_trip(self, server):
        response = self._call(server, {"type": "drill_down", "category": "Bhutan"})
        assert response["ok"]
        assert response["payload"]["bars"]

    def test_errors_reported_not_raised(self, server):
        response = self._call(server, {"type": "apply_repair", "rank": 42})
        assert not response["ok"]
        assert "no suggestion" in response["error"]["message"]

    def test_chart_query(self, server):
        response = self._call(server, {
            "type": "chart", "cat": "country", "num": "income",
        })
        assert response["ok"]
        assert "Bhutan" in response["payload"]

    def test_request_counter(self, server):
        self._call(server, {"type": "summary"})
        self._call(server, {"type": "rubbish"})
        assert server.requests_served == 1  # failures not counted
