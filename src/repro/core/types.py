"""Core domain types for Buckaroo: groups, anomalies, repair plans.

A *group* is the paper's fundamental abstraction (§2.1): the subset of rows
obtained by projecting a numerical attribute onto one value of a categorical
attribute, e.g. ``{Income | Country = "Bhutan"}`` is
``GroupKey("Country", "Bhutan", "Income")``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import total_ordering
from typing import Optional

# built-in error codes (§3.1)
ERROR_MISSING = "missing_value"
ERROR_OUTLIER = "outlier"
ERROR_TYPE_MISMATCH = "type_mismatch"
ERROR_SMALL_GROUP = "small_group"

BUILTIN_ERROR_CODES = (
    ERROR_MISSING, ERROR_OUTLIER, ERROR_TYPE_MISMATCH, ERROR_SMALL_GROUP,
)


@dataclass(frozen=True)
class ErrorType:
    """Metadata for one class of anomaly, including its chart colour.

    Each error type has a distinct colour in the UI (Figure 1); severity
    weights the anomaly-summary ranking.
    """

    code: str
    label: str
    color: str
    severity: float = 1.0


BUILTIN_ERROR_TYPES: dict[str, ErrorType] = {
    ERROR_MISSING: ErrorType(ERROR_MISSING, "Missing values", "#ff7f0e", 1.0),
    ERROR_OUTLIER: ErrorType(ERROR_OUTLIER, "Outliers", "#d62728", 1.5),
    ERROR_TYPE_MISMATCH: ErrorType(ERROR_TYPE_MISMATCH, "Type mismatch", "#9467bd", 1.2),
    ERROR_SMALL_GROUP: ErrorType(ERROR_SMALL_GROUP, "Group incompleteness", "#17becf", 0.5),
}

NO_ANOMALY_COLOR = "#c7c7c7"
"""Colour for clean marks ("No anomalies" in Figure 1's legend)."""

CUSTOM_ERROR_COLOR = "#1f77b4"
"""Default colour assigned to user-defined error types."""


def _category_order(category) -> tuple:
    """Rank a category cell so cells of different types still compare:
    missing first, then numbers, then everything else by type name."""
    if category is None:
        return (0,)
    if isinstance(category, (int, float)):
        return (1, category)
    return (2, type(category).__name__, category)


@total_ordering
@dataclass(frozen=True)
class GroupKey:
    """Identity of a group: ``{numerical | categorical = category}``.

    ``category`` is ``None`` for the group of rows whose categorical cell is
    missing.  Keys are totally ordered by ``(categorical, category,
    numerical)`` with the category ranked by :func:`_category_order`, so
    a missing or mixed-type category never breaks a sort.
    """

    categorical: str
    category: object
    numerical: str

    def sort_key(self) -> tuple:
        """The tuple keys are ordered by."""
        return (self.categorical, _category_order(self.category),
                self.numerical)

    def __lt__(self, other) -> bool:
        if not isinstance(other, GroupKey):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def describe(self) -> str:
        """Human-readable form, e.g. ``{Income | Country = 'Bhutan'}``."""
        return f"{{{self.numerical} | {self.categorical} = {self.category!r}}}"

    @property
    def pair(self) -> tuple[str, str]:
        """The chart this group belongs to: ``(categorical, numerical)``."""
        return (self.categorical, self.numerical)


@dataclass
class Group:
    """A group key together with its member row ids."""

    key: GroupKey
    row_ids: tuple

    @property
    def size(self) -> int:
        """Number of member rows."""
        return len(self.row_ids)

    def __contains__(self, row_id: int) -> bool:
        return row_id in self.row_ids


@dataclass(frozen=True)
class Anomaly:
    """One detected error: a (row, column) cell flagged with an error code.

    The error-tuple mapping the storage layer maintains (Fig 2 ⑤) is a set
    of these.
    """

    row_id: int
    column: str
    error_code: str
    group: GroupKey
    value: object = None
    detail: str = ""


@dataclass(frozen=True)
class Stats:
    """Summary statistics over the parseable numeric values of a column."""

    count: int
    mean: Optional[float]
    std: Optional[float]
    min: Optional[float]
    max: Optional[float]

    @property
    def has_spread(self) -> bool:
        """True when outlier thresholds are meaningful (std > 0)."""
        return self.std is not None and self.std > 0


# ---------------------------------------------------------------------------
# repair plans
# ---------------------------------------------------------------------------

OP_DELETE_ROWS = "delete_rows"
OP_SET_CELLS = "set_cells"


@dataclass(frozen=True)
class PlanOp:
    """One primitive mutation.

    ``delete_rows`` removes ``row_ids``; ``set_cells`` writes into
    ``column`` at ``row_ids`` either a single broadcast ``value`` or
    per-row ``values`` (aligned with ``row_ids``).
    """

    kind: str
    row_ids: tuple
    column: Optional[str] = None
    value: object = None
    values: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in (OP_DELETE_ROWS, OP_SET_CELLS):
            raise ValueError(f"unknown plan op kind {self.kind!r}")
        if self.kind == OP_SET_CELLS and self.column is None:
            raise ValueError("set_cells requires a column")
        if self.values is not None and len(self.values) != len(self.row_ids):
            raise ValueError("values must align with row_ids")


@dataclass
class RepairPlan:
    """A wrangler's proposed repair: primitive ops plus provenance.

    ``params`` records everything needed to regenerate the repair in an
    exported script (strategy, constants, scope...).
    """

    wrangler_code: str
    group_key: Optional[GroupKey]
    error_code: Optional[str]
    ops: list = field(default_factory=list)
    params: dict = field(default_factory=dict)
    description: str = ""

    @property
    def touched_rows(self) -> set:
        """All row ids any op touches."""
        rows: set = set()
        for op in self.ops:
            rows.update(op.row_ids)
        return rows

    @property
    def is_noop(self) -> bool:
        return all(not op.row_ids for op in self.ops)


@dataclass
class RepairSuggestion:
    """A ranked candidate repair (§3.2).

    ``resolved`` / ``introduced`` come from a speculative preview: how many
    anomalies the repair fixes vs. how many it creates in other groups.
    The paper ranks suggestions "by their effectiveness—favoring repairs
    that resolve the anomaly with minimal side effects on other groups".
    """

    plan: RepairPlan
    score: float = 0.0
    resolved: int = 0
    introduced: int = 0
    rank: int = 0

    @property
    def label(self) -> str:
        return self.plan.description or self.plan.wrangler_code


@dataclass
class ApplyResult:
    """Outcome of applying one repair through the session."""

    seq: int
    plan: RepairPlan
    rows_affected: int
    affected_groups: list
    resolved: int
    introduced: int
    backend_seconds: float
    replot_seconds: float

    @property
    def total_seconds(self) -> float:
        """End-to-end latency (backend processing + re-plotting)."""
        return self.backend_seconds + self.replot_seconds
