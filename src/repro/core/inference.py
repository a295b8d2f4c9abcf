"""Transform inference: predictive interaction over example edits.

Buckaroo descends from Wrangler's predictive-interaction paradigm (§5.2:
"transformation scripts are synthesized from user interactions").  This
module closes that loop: the user demonstrates a repair by editing a few
cells (or deleting a few rows) directly in the chart's detail view, and the
system infers which registered wrangler — with which parameters —
generalizes those examples to the whole group.

Inference is search-based: every applicable wrangler proposes its plan for
the group's anomalies; a candidate is *consistent* when its plan predicts
exactly the demonstrated values for every example row.  Consistent
candidates are ranked by generality (how many anomalous rows they repair
beyond the examples).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.types import (
    OP_DELETE_ROWS,
    OP_SET_CELLS,
    GroupKey,
    RepairPlan,
    RepairSuggestion,
)
from repro.errors import BuckarooError, WranglerError

DELETE_ROW = object()
"""Sentinel: the user deleted the row rather than editing a cell."""


@dataclass(frozen=True)
class CellEdit:
    """One demonstrated edit: ``row_id``'s ``column`` became ``new_value``.

    ``new_value=DELETE_ROW`` demonstrates a row deletion.
    """

    row_id: int
    column: str
    new_value: object = None


@dataclass
class InferenceResult:
    """A candidate generalization of the user's examples."""

    suggestion: RepairSuggestion
    consistent: bool
    matched_examples: int
    generality: int

    @property
    def plan(self) -> RepairPlan:
        return self.suggestion.plan


class TransformInference:
    """Infers repairs from example edits within one session."""

    def __init__(self, session):
        self.session = session

    def infer(self, edits: Sequence[CellEdit],
              group_key: Optional[GroupKey] = None,
              limit: Optional[int] = None) -> list[InferenceResult]:
        """Rank candidate repairs explaining ``edits``.

        All edits must target one column (plus optional deletions).  When
        ``group_key`` is omitted, the group is inferred as the anomalous
        group (for that column) containing the example rows.
        """
        if not edits:
            raise BuckarooError("transform inference needs at least one example")
        columns = {e.column for e in edits if e.new_value is not DELETE_ROW}
        if len(columns) > 1:
            raise BuckarooError(
                f"examples span several columns ({sorted(columns)}); "
                "demonstrate one transformation at a time"
            )
        key = group_key or self._locate_group(edits, columns)
        session = self.session
        group = session.group_manager.group(key)
        buckets = session.engine.index.group_anomalies_by_code(key)
        example_rows = {e.row_id for e in edits}
        ctx = session.wrangling_ctx.per_call()

        results: list[InferenceResult] = []
        seen_plans: set[str] = set()
        for code, anomalies in buckets.items():
            if not example_rows & {a.row_id for a in anomalies}:
                continue  # this error class doesn't cover the examples
            for wrangler in session.wranglers.for_error(code):
                try:
                    plan = wrangler.plan(ctx, group, anomalies)
                except WranglerError:
                    continue
                if plan.is_noop:
                    continue
                marker = f"{plan.wrangler_code}|{plan.error_code}|{plan.params}"
                if marker in seen_plans:
                    continue
                seen_plans.add(marker)
                matched, total = self._score(plan, edits)
                results.append(InferenceResult(
                    suggestion=RepairSuggestion(plan=plan),
                    consistent=(matched == len(edits)),
                    matched_examples=matched,
                    generality=total,
                ))
        results.sort(
            key=lambda r: (-int(r.consistent), -r.matched_examples, -r.generality)
        )
        for rank, result in enumerate(results, start=1):
            result.suggestion.rank = rank
        return results[:limit] if limit is not None else results

    # -- internals ---------------------------------------------------------------

    def _locate_group(self, edits: Sequence[CellEdit], columns: set) -> GroupKey:
        rows = [e.row_id for e in edits]
        candidates = self.session.overlap.affected_groups(rows)
        target_column = next(iter(columns)) if columns else None
        best: Optional[GroupKey] = None
        best_count = -1
        for key in candidates:
            if target_column is not None and key.numerical != target_column:
                continue
            anomalies = self.session.engine.index.anomalies(key)
            covered = len({a.row_id for a in anomalies} & set(rows))
            if covered > best_count:
                best, best_count = key, covered
        if best is None or best_count == 0:
            raise BuckarooError(
                "could not find an anomalous group covering the example rows; "
                "pass group_key explicitly"
            )
        return best

    def _score(self, plan: RepairPlan, edits: Sequence[CellEdit]) -> tuple[int, int]:
        """(#examples the plan reproduces exactly, #rows the plan touches)."""
        predictions = self._predict(plan)
        matched = 0
        for edit in edits:
            predicted = predictions.get(edit.row_id, _ABSENT)
            if edit.new_value is DELETE_ROW:
                if predicted is DELETE_ROW:
                    matched += 1
            elif predicted is not _ABSENT and predicted is not DELETE_ROW:
                if _values_equal(predicted, edit.new_value):
                    matched += 1
        return matched, len(plan.touched_rows)

    def _predict(self, plan: RepairPlan) -> dict:
        """Per-row predicted outcome of a plan (value written, or deletion)."""
        predictions: dict = {}
        for op in plan.ops:
            if op.kind == OP_DELETE_ROWS:
                for row_id in op.row_ids:
                    predictions[row_id] = DELETE_ROW
            elif op.kind == OP_SET_CELLS:
                values = op.values if op.values is not None else [op.value] * len(op.row_ids)
                for row_id, value in zip(op.row_ids, values):
                    predictions[row_id] = value
        return predictions


_ABSENT = object()


def _values_equal(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(float(a) - float(b)) <= max(1e-6, 1e-9 * abs(float(b)))
    return a == b
