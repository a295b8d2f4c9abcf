"""The headless Buckaroo application.

Wires a session, the chart matrix, the selection model, the repair kit, the
summary panel, and (optionally) a drill-down navigator into a single
event-driven facade — the full Figure 2 architecture minus pixels.
Every user story in the paper (Figure 1's narrative, Figure 3's
select/preview/apply loop, §6.2's drill-down removal) is a sequence of
:mod:`repro.ui.events` handled here.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.charts.matrix import ChartMatrix
from repro.charts.selection import SelectionModel
from repro.core.session import BuckarooSession
from repro.errors import BuckarooError
from repro.ui import events
from repro.ui.repair_kit import RepairKit
from repro.ui.summary import SummaryPanel
from repro.zoom.engine import DrillDownApp


class BuckarooApp:
    """Event-driven headless UI over one session."""

    def __init__(self, session: BuckarooSession,
                 drilldown_hierarchy: Optional[Sequence[str]] = None):
        self.session = session
        if not session.group_manager.groups:
            session.generate_groups()
            session.detect()
        self.matrix = ChartMatrix(session)
        self.selection = SelectionModel()
        self.repair_kit = RepairKit(session)
        self.summary = SummaryPanel(session)
        self.drilldown: Optional[DrillDownApp] = None
        if drilldown_hierarchy is not None:
            if session.backend.kind != "sql":
                raise BuckarooError(
                    "drill-down navigation requires the SQL backend"
                )
            self.drilldown = DrillDownApp(session.backend, drilldown_hierarchy)
        self.event_log: list = []

    # -- event dispatch ------------------------------------------------------

    def handle(self, event) -> object:
        """Dispatch one UI event; returns the handler's payload."""
        self.event_log.append(event)
        if isinstance(event, events.SelectGroup):
            self.selection.select_group(event.key)
            return event.key
        if isinstance(event, events.RequestSuggestions):
            self.selection.select_group(event.key)
            return self.repair_kit.open_for(event.key, event.error_code, event.limit)
        if isinstance(event, events.PreviewRepair):
            suggestion = self.repair_kit.suggestion(event.suggestion_rank)
            return self.session.preview(suggestion)
        if isinstance(event, events.ApplyRepair):
            suggestion = self.repair_kit.suggestion(event.suggestion_rank)
            result = self.session.apply(suggestion)
            self.repair_kit.close()
            self.selection.clear()
            return result
        if isinstance(event, events.Undo):
            return self.session.undo()
        if isinstance(event, events.Redo):
            return self.session.redo()
        if isinstance(event, events.ExportScript):
            return self.session.export_script(event.target)
        if isinstance(event, events.DrillDown):
            return self._drilldown().drill_into(event.category)
        if isinstance(event, events.RollUp):
            return self._drilldown().roll_up()
        if isinstance(event, events.RemoveVisibleRow):
            view, seconds = self._drilldown().remove_row(event.row_id)
            # the drill-down deletes behind the session's back: drop the row
            # from the session's groups and error index too
            self.session.group_manager.drop_rows([event.row_id])
            self.session.engine.index.drop_rows([event.row_id])
            return view, seconds
        raise BuckarooError(f"unknown event {type(event).__name__}")

    def _drilldown(self) -> DrillDownApp:
        if self.drilldown is None:
            raise BuckarooError("no drill-down hierarchy was configured")
        return self.drilldown

    # -- convenience views -----------------------------------------------------

    def summary_text(self, group_limit: int = 10) -> str:
        """The anomaly-summary panel as text."""
        return self.summary.render(group_limit)

    def chart_text(self, cat: str, num: str) -> str:
        """One matrix chart rendered as ASCII."""
        from repro.charts.render_text import render_text

        return render_text(self.matrix.chart(cat, num))
