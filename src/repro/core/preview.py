"""Chart data series and repair previews (§3.2, Figure 3).

Each (categorical, numerical) chart pair renders from a
:class:`ChartSeries`: one entry per group with its size, mean, and missing
count.  A repair preview is simply the pair's series before and after a
speculative application of the plan — "a live chart preview ... allowing
users to assess the expected impact on the dataset before applying a
change".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.backends.base import Backend
from repro.core.groups import GroupManager
from repro.core.types import RepairPlan


@dataclass
class ChartSeries:
    """Aggregated render data for one chart pair."""

    categorical: str
    numerical: str
    categories: list = field(default_factory=list)
    counts: list = field(default_factory=list)
    means: list = field(default_factory=list)
    missing: list = field(default_factory=list)

    @property
    def pair(self) -> tuple[str, str]:
        return (self.categorical, self.numerical)

    def entry(self, category) -> dict | None:
        """The series entry for one category, or None when absent."""
        try:
            i = self.categories.index(category)
        except ValueError:
            return None
        return {
            "category": self.categories[i],
            "count": self.counts[i],
            "mean": self.means[i],
            "missing": self.missing[i],
        }

    def update_entry(self, category, count: int, mean, missing: int) -> None:
        """Insert or replace one category's aggregates (incremental replot).

        Re-plotting after a repair touches only the affected groups' marks —
        "all affected charts and summaries update instantly" (§2.2) without
        recomputing the untouched categories.
        """
        try:
            i = self.categories.index(category)
        except ValueError:
            self.categories.append(category)
            self.counts.append(count)
            self.means.append(mean)
            self.missing.append(missing)
            return
        self.counts[i] = count
        self.means[i] = mean
        self.missing[i] = missing

    def remove_entry(self, category) -> None:
        """Drop one category's mark (its group became empty)."""
        try:
            i = self.categories.index(category)
        except ValueError:
            return
        del self.categories[i]
        del self.counts[i]
        del self.means[i]
        del self.missing[i]


def _missing_by_category(backend: Backend, cat: str, num: str) -> Counter:
    """NULL ``num`` cells per ``cat`` category, from one column-level list."""
    rows = backend.missing_row_ids(num)
    return Counter(backend.values(cat, rows) if rows else ())


def build_series(backend: Backend, manager: GroupManager,
                 cat: str, num: str) -> ChartSeries:
    """Aggregate one chart pair's groups into a render series."""
    series = ChartSeries(cat, num)
    missing = _missing_by_category(backend, cat, num)
    for key in manager.keys_for_pair(cat, num):
        group = manager.group(key)
        stats = backend.numeric_stats(num, cat, key.category)
        series.categories.append(key.category)
        series.counts.append(group.size)
        series.means.append(stats.mean)
        series.missing.append(missing[key.category])
    return series


def refresh_entries(series: ChartSeries, backend: Backend,
                    manager: GroupManager, keys) -> None:
    """Incrementally refresh the entries for ``keys`` (all of the series' pair)."""
    missing = _missing_by_category(backend, *series.pair)
    for key in keys:
        if key not in manager.groups:
            series.remove_entry(key.category)
            continue
        group = manager.group(key)
        stats = backend.numeric_stats(key.numerical, key.categorical, key.category)
        series.update_entry(key.category, group.size, stats.mean, missing[key.category])


@dataclass
class PreviewResult:
    """Before/after impact of a candidate repair (Figure 3 B)."""

    plan: RepairPlan
    before: ChartSeries
    after: ChartSeries
    resolved: int
    introduced: int
    score: float

    def describe(self) -> str:
        """One-line summary for the repair-kit sidebar."""
        return (
            f"{self.plan.description} -> resolves {self.resolved}, "
            f"introduces {self.introduced} (score {self.score:+.1f})"
        )
