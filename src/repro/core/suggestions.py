"""Repair suggestion generation and ranking (§3.2).

For a selected group, every wrangler able to repair each present error code
proposes a plan.  Plans are scored from their delta, never written: the
backend computes it (``Backend.plan_delta``), the session folds it into the
group memberships, re-detects the groups it can change through a read-only
``DeltaView``, counts anomalies resolved vs. introduced against the error
index, and reverts the memberships.  "Wrangling suggestions are ranked by
their effectiveness—favoring repairs that resolve the anomaly with minimal
side effects on other groups."  A plan is written, re-detected and rolled
back instead when a detector is not ``local``, when it names one row in two
ops, or when the view cannot answer a read exactly: group-scoped outlier
stats, a NaN written on SQL, a frame dtype widened past int64 -> float64.
"""

from __future__ import annotations

from typing import Optional

from repro.core.types import GroupKey, RepairSuggestion
from repro.errors import WranglerError


class SuggestionEngine:
    """Generates ranked :class:`RepairSuggestion` lists for a session."""

    def __init__(self, session):
        self.session = session

    def candidate_plans(self, key: GroupKey,
                        error_code: Optional[str] = None) -> list:
        """Unscored plans from every applicable wrangler."""
        session = self.session
        group = session.group_manager.group(key)
        buckets = session.engine.index.group_anomalies_by_code(key)
        if error_code is not None:
            buckets = {
                code: anomalies for code, anomalies in buckets.items()
                if code == error_code
            }
        plans = []
        for code, anomalies in buckets.items():
            for wrangler in session.wranglers.for_error(code):
                try:
                    plan = wrangler.plan(session.wrangling_ctx, group, anomalies)
                except WranglerError:
                    continue  # e.g. no spread to clip against
                if plan.is_noop:
                    continue
                plans.append(plan)
        return plans

    def suggest(self, key: GroupKey, error_code: Optional[str] = None,
                limit: Optional[int] = None,
                score_plans: bool = True) -> list[RepairSuggestion]:
        """Ranked suggestions for ``key`` (optionally one error code only).

        With ``score_plans=False`` the speculative scoring pass is skipped
        (all scores are 0) — used when the caller only needs the menu.
        """
        suggestions = []
        for plan in self.candidate_plans(key, error_code):
            if score_plans:
                speculation = self.session.speculate(plan)
                suggestion = RepairSuggestion(
                    plan=plan,
                    score=speculation.score,
                    resolved=speculation.resolved,
                    introduced=speculation.introduced,
                )
            else:
                suggestion = RepairSuggestion(plan=plan)
            suggestions.append(suggestion)
        suggestions.sort(key=lambda s: (-s.score, s.plan.wrangler_code))
        for rank, suggestion in enumerate(suggestions, start=1):
            suggestion.rank = rank
        return suggestions[:limit] if limit is not None else suggestions
