"""The storage backend protocol Buckaroo's core is written against.

The paper's central runtime comparison (Table 1) is between a Postgres
backend and a Pandas backend doing the same wrangling work.  This module
defines the capability surface both must provide; the core never touches
storage directly.

Row identity: every row has a stable integer ``row_id`` that survives
updates and is never reused while the row exists.  All anomaly bookkeeping,
deltas, and undo are expressed in row ids.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence

from repro.core.types import Stats
from repro.snapshots.delta import DeltaSnapshot


class Backend(ABC):
    """Abstract storage backend (see module docstring)."""

    kind: str = "abstract"

    # -- schema ----------------------------------------------------------------

    @abstractmethod
    def column_names(self) -> list[str]:
        """All column names, in order."""

    @abstractmethod
    def row_count(self) -> int:
        """Current number of rows."""

    @abstractmethod
    def categorical_columns(self, max_categories: int = 50) -> list[str]:
        """Columns usable as grouping attributes."""

    @abstractmethod
    def numerical_columns(self) -> list[str]:
        """Columns holding (possibly messy) numeric data."""

    # -- reads -----------------------------------------------------------------

    @abstractmethod
    def all_row_ids(self) -> list[int]:
        """Every live row id."""

    @abstractmethod
    def row(self, row_id: int) -> dict:
        """One row as ``{column: value}`` (raises on a dead row id)."""

    @abstractmethod
    def values(self, column: str, row_ids: Sequence[int]) -> list:
        """Cell values for ``column`` aligned with ``row_ids``."""

    @abstractmethod
    def distinct_values(self, column: str) -> list:
        """Distinct non-null values of ``column``."""

    @abstractmethod
    def group_row_ids(self, cat_col: str, category) -> list[int]:
        """Row ids where ``cat_col`` equals ``category`` (None -> IS NULL)."""

    @abstractmethod
    def group_sizes(self, cat_col: str) -> dict:
        """``category -> row count`` (a ``None`` key collects missing cells)."""

    @abstractmethod
    def numeric_stats(self, num_col: str, cat_col: Optional[str] = None,
                      category=None) -> Stats:
        """Stats over the *numeric* values of ``num_col``.

        Text contamination and NULLs are excluded.  With ``cat_col``, the
        scope narrows to one group.
        """

    # -- detector capabilities: column-level, one SQL query each on the DB
    # backend; detectors bucket the answer by category themselves ---------------

    @abstractmethod
    def missing_row_ids(self, num_col: str) -> list[int]:
        """Rows whose ``num_col`` cell is NULL, across the whole column."""

    @abstractmethod
    def mismatch_row_ids(self, num_col: str) -> list[int]:
        """Rows whose ``num_col`` cell holds unparseable text, across the column."""

    @abstractmethod
    def out_of_range_row_ids(self, num_col: str, low: float, high: float) -> list[int]:
        """Rows whose numeric ``num_col`` value is ``< low`` or ``> high``."""

    # -- writes -----------------------------------------------------------------

    @abstractmethod
    def delete_rows(self, row_ids: Sequence[int]) -> DeltaSnapshot:
        """Remove rows; returns the delta for undo."""

    @abstractmethod
    def set_cells(self, column: str, row_ids: Sequence[int], value=None,
                  values: Optional[Sequence] = None) -> DeltaSnapshot:
        """Write ``value`` (broadcast) or aligned ``values`` into ``column``."""

    @abstractmethod
    def apply_delta(self, delta: DeltaSnapshot) -> None:
        """Re-apply a delta (deletions, insertions, cell updates).

        ``apply_delta(delta.inverse())`` is undo.
        """

    # -- infrastructure -----------------------------------------------------------

    @abstractmethod
    def ensure_index(self, column: str) -> None:
        """Create a lookup index for ``column`` when the backend supports it."""

    @abstractmethod
    def flush(self) -> int:
        """Persist buffered changes; returns how many records were flushed."""

    @abstractmethod
    def to_frame(self, include_row_ids: bool = False):
        """Materialize the current data as a :class:`repro.frame.DataFrame`.

        With ``include_row_ids`` a leading ``_row_id`` column is added —
        custom detectors use it to report anomalies (§3.1).
        """

    # -- shared helpers ------------------------------------------------------------

    def register_chart_columns(self, cat_cols, num_cols) -> None:
        """Hint which attributes the charts project (§3.2 backend cache).

        The SQL backend builds its incremental group-statistics cache from
        this; the frame backend ignores it (pandas recomputes — the Table 1
        asymmetry).
        """

    def revert_delta(self, delta: DeltaSnapshot) -> None:
        """Undo a delta (convenience for ``apply_delta(delta.inverse())``)."""
        self.apply_delta(delta.inverse())
