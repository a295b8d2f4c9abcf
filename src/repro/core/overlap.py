"""The group overlap graph (§3.3).

Groups defined over *different* categorical attributes can share rows: a row
with a missing Income appears under ``Country='Bhutan'`` in one chart and
under ``Degree='BS'`` in another.  Buckaroo "maintains a group overlap
graph, where each node corresponds to a group and an undirected edge
connects any two groups that share one or more rows", and consults it after
each repair to decide which groups need re-detection.

The graph is kept *implicit*: neighbor queries resolve through the
:class:`~repro.core.groups.GroupManager`'s membership index — its
``row id -> category`` map per categorical chart column — instead of
materializing O(groups²) edges, so "which groups hold these rows" costs one
dict lookup per (row, categorical column) and reads nothing from the
backend.  The graph is therefore exactly as current as that index: the
session keeps it so by folding every mutation's delta into the manager
(``GroupManager.apply_delta``); after a change made behind the manager's
back, tell it first (``GroupManager.drop_rows`` / ``refresh``).  Rows that
no longer exist belong to no group.  ``edges()`` and ``to_networkx()``
materialize explicitly for inspection and tests.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.groups import GroupManager
from repro.core.types import GroupKey


class OverlapGraph:
    """Implicit overlap graph over a :class:`GroupManager`'s groups."""

    def __init__(self, manager: GroupManager):
        self.manager = manager

    # -- core queries ------------------------------------------------------------

    def affected_groups(self, row_ids: Iterable[int]) -> set[GroupKey]:
        """All groups containing any of ``row_ids``.

        The localized re-detection of §3.3 starts from this set.  With only
        :attr:`~repro.core.detectors.Detector.local` detectors registered,
        the session keeps just the groups whose projected attribute the
        repair wrote, and adds the groups whose membership it changed.
        Otherwise every group in this set re-runs its detectors.
        """
        return self.manager.groups_of_rows(row_ids)

    def neighbors(self, key: GroupKey) -> set[GroupKey]:
        """Groups sharing at least one row with ``key``'s group."""
        group = self.manager.group(key)
        linked = self.manager.groups_of_rows(group.row_ids)
        linked.discard(key)
        # sibling groups on the same pair never share rows (disjoint categories)
        return {
            other for other in linked
            if other.pair != key.pair or other.category == key.category
        }

    def connected_component(self, key: GroupKey,
                            max_groups: int | None = None) -> set[GroupKey]:
        """BFS over shared-row edges starting from ``key``.

        ``max_groups`` bounds the expansion (components can span the whole
        dataset when every row carries several attributes).
        """
        seen = {key}
        frontier = [key]
        while frontier:
            current = frontier.pop()
            for neighbor in self.neighbors(current):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
                    if max_groups is not None and len(seen) >= max_groups:
                        return seen
        return seen

    # -- explicit materialization ---------------------------------------------------

    def edges(self) -> Iterator[tuple[GroupKey, GroupKey]]:
        """Yield each undirected edge once (suitable for small datasets)."""
        keys = sorted(self.manager.groups)
        row_sets = {
            key: set(self.manager.group(key).row_ids) for key in keys
        }
        for i, first in enumerate(keys):
            for second in keys[i + 1:]:
                if row_sets[first] & row_sets[second]:
                    yield (first, second)

    def degree(self, key: GroupKey) -> int:
        """Number of overlapping groups."""
        return len(self.neighbors(key))

    def to_networkx(self):
        """Materialize as a :class:`networkx.Graph` (nodes carry sizes)."""
        import networkx as nx

        graph = nx.Graph()
        for key, group in self.manager.groups.items():
            graph.add_node(key, size=group.size)
        graph.add_edges_from(self.edges())
        return graph
