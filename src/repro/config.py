"""Session configuration.

The defaults follow the paper:

* outliers are values beyond a configurable threshold, "e.g., 2 standard
  deviations from the global mean" (§3.1) -> ``outlier_sigma = 2.0``;
* groups below a minimum cardinality are flagged incomplete (§3.1)
  -> ``min_group_size = 5``;
* the write cache is flushed to the database "after every three updates,
  which can be configured by the user" (§3.2) -> ``flush_interval = 3``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass
class BuckarooConfig:
    """Tunable knobs for a :class:`~repro.core.session.BuckarooSession`.

    Attributes:
        outlier_sigma: number of standard deviations from the mean beyond
            which a value is flagged as an outlier.
        outlier_scope: ``"global"`` flags values against the whole column's
            mean/std (the paper's default); ``"group"`` flags against the
            group's own statistics.
        min_group_size: groups with fewer rows are flagged as incomplete.
        flush_interval: number of applied wrangling operations between
            write-cache flushes to the backing database (a durable
            checkpoint on a file-backed SQL backend, a no-op in memory).
        context_sample_size: number of clean "context" rows error-first
            sampling adds around each group's anomalies.
        max_categories: categorical attributes with more distinct values
            than this are not used to generate groups (keeps the chart
            matrix readable, §2.1 "adjusting granularity").
        seed: seed for all stochastic components (samplers, generators).
    """

    outlier_sigma: float = 2.0
    outlier_scope: str = "global"
    min_group_size: int = 5
    flush_interval: int = 3
    context_sample_size: int = 20
    max_categories: int = 50
    seed: int = 7

    def __post_init__(self) -> None:
        if self.outlier_sigma <= 0:
            raise ValueError("outlier_sigma must be positive")
        if self.outlier_scope not in ("global", "group"):
            raise ValueError("outlier_scope must be 'global' or 'group'")
        if self.min_group_size < 1:
            raise ValueError("min_group_size must be at least 1")
        if self.flush_interval < 1:
            raise ValueError("flush_interval must be at least 1")

    def with_overrides(self, **changes) -> "BuckarooConfig":
        """Return a copy with the given fields replaced (validated)."""
        return replace(self, **changes)


DEFAULT_CONFIG = BuckarooConfig()
"""A shared immutable-by-convention default configuration."""
