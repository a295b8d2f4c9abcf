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
stats, a frame dtype widened past int64 -> float64.

Suggestions rank by ``(-score, wrangler code, candidate position)``.  With a
``limit`` of k, plans are scored best-bound-first and scoring stops early.
A plan's *bound* counts the error-index entries of the rows its ops name:
every entry of a deleted row, and for a ``set_cells`` op the entries of
groups charting the written column.  The bound is admissible
(score <= resolved <= bound) when the outlier scope is global and every
registered detector is one of the four built-ins: a row's verdict then
depends only on its own cell, the pinned global stats and its group's size,
and a delete can only *introduce* small-group anomalies.  Plans are scored
in ``(-bound, wrangler code, position)`` order, and scoring stops once the
k-th realised key sorts before the next plan's bound key: no unscored plan
can then reach the top k, so the list equals exhaustive scoring's first k.
Every plan is scored, as without a limit, when the bound cannot be proven:
no ``limit``, group-scoped outliers, any other registered detector, or an op
that writes a categorical chart column (a relabel can lift a group over
``min_group_size`` and clear rows no op names).
"""

from __future__ import annotations

from bisect import insort
from typing import Optional

from repro.core.detectors import (
    MissingValueDetector,
    OutlierDetector,
    SmallGroupDetector,
    TypeMismatchDetector,
)
from repro.core.types import OP_DELETE_ROWS, GroupKey, RepairSuggestion
from repro.errors import WranglerError

_BUILTIN_DETECTORS = (MissingValueDetector, OutlierDetector,
                      TypeMismatchDetector, SmallGroupDetector)


class SuggestionEngine:
    """Generates ranked :class:`RepairSuggestion` lists for a session.

    ``plans_built`` and ``plans_scored`` count, over the engine's life, the
    candidate plans wranglers proposed and the ones speculation scored.
    """

    def __init__(self, session):
        self.session = session
        self.plans_built = 0
        self.plans_scored = 0

    def candidate_plans(self, key: GroupKey,
                        error_code: Optional[str] = None) -> list:
        """Unscored plans from every applicable wrangler, planned through a
        fresh per-call context (one numeric read of the group)."""
        session = self.session
        ctx = session.wrangling_ctx.per_call()
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
                    plan = wrangler.plan(ctx, group, anomalies)
                except WranglerError:
                    continue  # e.g. no spread to clip against
                if plan.is_noop:
                    continue
                plans.append(plan)
        self.plans_built += len(plans)
        return plans

    def suggest(self, key: GroupKey, error_code: Optional[str] = None,
                limit: Optional[int] = None,
                score_plans: bool = True) -> list[RepairSuggestion]:
        """Ranked suggestions for ``key`` (optionally one error code only).

        With ``score_plans=False`` the speculative scoring pass is skipped
        (all scores are 0) — used when the caller only needs the menu.
        """
        plans = self.candidate_plans(key, error_code)
        bounds = None
        if score_plans and limit is not None and limit > 0:
            bounds = self._bounds(plans)
        order = list(range(len(plans)))
        if bounds is not None:
            order.sort(key=lambda i: (-bounds[i], plans[i].wrangler_code, i))
        ranked: list = []  # ((-score, wrangler code, position), suggestion), ascending
        for position in order:
            plan = plans[position]
            if (bounds is not None and len(ranked) >= limit
                    and ranked[limit - 1][0] < (-bounds[position], plan.wrangler_code,
                                                position)):
                break
            if score_plans:
                speculation = self.session.speculate(plan)
                self.plans_scored += 1
                suggestion = RepairSuggestion(
                    plan=plan,
                    score=speculation.score,
                    resolved=speculation.resolved,
                    introduced=speculation.introduced,
                )
            else:
                suggestion = RepairSuggestion(plan=plan)
            insort(ranked, ((-suggestion.score, plan.wrangler_code, position), suggestion))
        suggestions = [suggestion for _key, suggestion in ranked[:limit]]
        for rank, suggestion in enumerate(suggestions, start=1):
            suggestion.rank = rank
        return suggestions

    def _bounds(self, plans: list) -> Optional[list[int]]:
        """Each plan's admissible bound on its score, or ``None`` when one
        cannot be proven (see the module docstring)."""
        session = self.session
        if session.config.outlier_scope != "global" or any(
                type(detector) not in _BUILTIN_DETECTORS
                for detector in session.detectors.all()):
            return None
        categorical = set(session.group_manager.categorical_attributes)
        index = session.engine.index
        bounds = []
        for plan in plans:
            bound = 0
            for op in plan.ops:
                if op.kind == OP_DELETE_ROWS:
                    bound += index.count_row_errors(op.row_ids)
                elif op.column in categorical:
                    return None
                else:
                    bound += index.count_row_errors(op.row_ids, numerical=op.column)
            bounds.append(bound)
        return bounds
