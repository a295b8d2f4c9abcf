"""Group generation and the membership index (§2.1, §3.3).

Buckaroo "generates groups by projecting numerical attributes onto
categorical attributes".  The :class:`GroupManager` owns the set of (cat,
num) chart pairs, materializes one :class:`~repro.core.types.Group` per
category value per pair, and keeps memberships current as repairs mutate
data.

Membership lives in an index the manager owns — per categorical chart
column, ``category -> member row ids`` and ``row id -> category``:

* it is **built** by :meth:`GroupManager.generate` with one backend read per
  categorical column (the column's cell of every live row), not one query
  per category;
* it is **maintained** by :meth:`GroupManager.apply_delta` from the
  :class:`~repro.snapshots.DeltaSnapshot` every mutation returns — deleted
  and inserted rows carry their categorical cells, updated cells carry
  ``(old, new)`` — with no backend read at all.  The cost is the size of the
  delta plus one tuple rebuild per category that gained or lost a row; a
  delta that only touches numerical columns changes nothing.  Undo and the
  roll-back of a speculation are the inverse delta through the same method.

This is the "indexing data structure" that localizes re-detection: the same
shape as the SQL backend's ``GroupStatsCache`` (one build scan, then work
proportional to the change), but in ``core`` so both backends get it.

Invariants, which hold between any two public calls as long as every data
mutation reaches :meth:`~GroupManager.apply_delta`:

* for every categorical chart column the categories partition the live
  rows, and ``row id -> category`` is the inverse of ``category -> rows``;
* member rows are ascending row ids, and the numerical attributes of one
  category share *one* tuple (the member rows of ``Country='Bhutan'`` are
  the same whether the chart shows Income or Age);
* ``groups`` holds exactly one :class:`Group` per (category, numerical
  attribute) of the index, and no empty group.

The session keeps these by itself (apply, speculate, preview, undo and redo
all route their delta here).  A caller that changes the backend *without* a
delta reaching the manager must say so: :meth:`~GroupManager.drop_rows` for
rows it deleted (the drill-down view's row removal), and otherwise
:meth:`~GroupManager.refresh` / :meth:`~GroupManager.discover_new_categories`,
which re-read whole columns through the build code of ``generate`` (tests
that edit the backend directly; no product path calls them).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.backends.base import Backend
from repro.config import BuckarooConfig
from repro.core.types import Group, GroupKey
from repro.errors import BuckarooError
from repro.snapshots.delta import DeltaSnapshot

_ABSENT = object()
"""The "category" of a row that does not exist (before an insert, after a delete)."""


class _ColumnIndex:
    """Membership of one categorical chart column."""

    __slots__ = ("numericals", "members", "category_of")

    def __init__(self, numericals: list[str]):
        self.numericals = numericals                 # attributes charted against it
        self.members: dict[object, tuple] = {}       # category -> ascending row ids
        self.category_of: dict[int, object] = {}     # row id -> category


class GroupManager:
    """Owns chart pairs, the membership index and the groups built from it."""

    def __init__(self, backend: Backend, config: BuckarooConfig):
        self.backend = backend
        self.config = config
        self.pairs: list[tuple[str, str]] = []
        self.groups: dict[GroupKey, Group] = {}
        self._cat_cols: list[str] = []
        self._num_cols: list[str] = []
        self._index: dict[str, _ColumnIndex] = {}

    # -- generation -------------------------------------------------------------

    def generate(self, cat_cols: Optional[Sequence[str]] = None,
                 num_cols: Optional[Sequence[str]] = None) -> list[GroupKey]:
        """(Re)build the index and all groups; returns the group keys.

        Users "can control this process by selecting the projection columns
        and adjusting granularity" — pass explicit column lists to override
        the automatic choice.
        """
        self._cat_cols = list(
            cat_cols if cat_cols is not None
            else self.backend.categorical_columns(self.config.max_categories)
        )
        self._num_cols = list(
            num_cols if num_cols is not None else self.backend.numerical_columns()
        )
        for column in self._cat_cols:
            self.backend.ensure_index(column)
        for column in self._num_cols:
            self.backend.ensure_index(column)
        self.backend.register_chart_columns(self._cat_cols, self._num_cols)
        self.pairs = [
            (cat, num)
            for cat in self._cat_cols
            for num in self._num_cols
            if cat != num
        ]
        self.groups = {}
        self._index = {
            cat: _ColumnIndex([num for num in self._num_cols if num != cat])
            for cat in self._cat_cols
        }
        self._reload(self._cat_cols)
        return list(self.groups)

    def _load_column(self, cat: str, row_ids: list[int]) -> list[GroupKey]:
        """Read one categorical column and rebuild its index and groups.

        ``row_ids`` are the live rows, ascending.  Returns the keys of
        groups that did not exist before.
        """
        column = self._index[cat]
        stale = column.members
        column.category_of = dict(zip(row_ids, self.backend.values(cat, row_ids)))
        members: dict[object, list] = {}
        for row_id, category in column.category_of.items():
            members.setdefault(category, []).append(row_id)
        column.members = {}
        created: list[GroupKey] = []
        for category in stale.keys() - members.keys():
            self._store(cat, category, ())
        for category, rows in members.items():
            keys = self._store(cat, category, tuple(rows))
            if category not in stale:
                created.extend(keys)
        return created

    def _store(self, cat: str, category, rows: tuple) -> list[GroupKey]:
        """Set one category's member rows (empty drops it); returns its keys."""
        column = self._index[cat]
        keys = [GroupKey(cat, category, num) for num in column.numericals]
        if rows:
            column.members[category] = rows
            for key in keys:
                self.groups[key] = Group(key, rows)
        else:
            column.members.pop(category, None)
            for key in keys:
                self.groups.pop(key, None)
        return keys

    # -- access ----------------------------------------------------------------

    @property
    def categorical_attributes(self) -> list[str]:
        """The grouping attributes in use."""
        return list(self._cat_cols)

    @property
    def numerical_attributes(self) -> list[str]:
        """The projected attributes in use."""
        return list(self._num_cols)

    def group(self, key: GroupKey) -> Group:
        """The group for ``key`` (raises when unknown)."""
        try:
            return self.groups[key]
        except KeyError:
            raise BuckarooError(f"unknown group {key.describe()}") from None

    def keys(self) -> list[GroupKey]:
        """All current group keys."""
        return list(self.groups)

    def keys_for_pair(self, cat: str, num: str) -> list[GroupKey]:
        """Group keys belonging to one chart pair."""
        return [key for key in self.groups if key.categorical == cat and key.numerical == num]

    def groups_of_rows(self, row_ids: Iterable[int]) -> set[GroupKey]:
        """Every group key that any of ``row_ids`` belongs to.

        A row belongs to exactly one group per (cat, num) pair — the group
        keyed by its value of the categorical attribute (§2.1).  Answered
        from the ``row id -> category`` maps; rows that do not exist belong
        to no group.
        """
        row_ids = list(row_ids)
        keys: set[GroupKey] = set()
        for cat, column in self._index.items():
            category_of = column.category_of
            categories = {
                category_of[row_id] for row_id in row_ids if row_id in category_of
            }
            for category in categories:
                for num in column.numericals:
                    keys.add(GroupKey(cat, category, num))
        return keys

    # -- maintenance --------------------------------------------------------------

    def apply_delta(self, delta: DeltaSnapshot) -> set[GroupKey]:
        """Fold one mutation into the index; returns the keys it changed.

        "Changed" means the group gained or lost a member — including groups
        the delta created or emptied (the latter are gone from ``groups``).
        Nothing is read from the backend.  The inverse delta undoes it.
        """
        changed: set[GroupKey] = set()
        for cat, column in self._index.items():
            # where each row the delta names ends up in this column, in the
            # order the backends apply a delta: deletes, inserts, then
            # updates — which do nothing to a row the delta has deleted
            moves: dict[int, object] = dict.fromkeys(delta.deleted, _ABSENT)
            moves.update(
                (row_id, content.get(cat))
                for row_id, content in delta.inserted.items()
            )
            moves.update(
                (row_id, cells[cat][1])
                for row_id, cells in delta.updated.items()
                if cat in cells and moves.get(row_id) is not _ABSENT
            )
            if not moves:
                continue
            category_of = column.category_of
            left: dict[object, set] = {}
            entered: dict[object, list] = {}
            for row_id, category in moves.items():
                previous = category_of.get(row_id, _ABSENT)
                if previous is category or previous == category:
                    continue
                if previous is not _ABSENT:
                    left.setdefault(previous, set()).add(row_id)
                if category is _ABSENT:
                    del category_of[row_id]
                else:
                    category_of[row_id] = category
                    entered.setdefault(category, []).append(row_id)
            for category in left.keys() | entered.keys():
                rows = column.members.get(category, ())
                gone = left.get(category)
                if gone:
                    rows = tuple([row_id for row_id in rows if row_id not in gone])
                if category in entered:
                    rows = tuple(sorted(rows + tuple(entered[category])))
                changed.update(self._store(cat, category, rows))
        return changed

    def drop_rows(self, row_ids: Iterable[int]) -> set[GroupKey]:
        """Forget rows that were deleted without a delta reaching the manager.

        Returns the keys that lost a member; unknown rows are ignored.
        """
        return self.apply_delta(DeltaSnapshot(deleted=dict.fromkeys(row_ids, {})))

    def refresh(self, keys: Sequence[GroupKey]) -> list[GroupKey]:
        """Resync with the backend after a change no delta reported.

        Re-reads every categorical column ``keys`` name (all of that
        column's groups are brought up to date, empty ones dropped) and
        returns the keys that are still alive.
        """
        self._reload({key.categorical for key in keys})
        return [key for key in keys if key in self.groups]

    def discover_new_categories(self, cat_col: str) -> list[GroupKey]:
        """Resync one column with the backend; returns the groups that are new.

        For category values that appeared behind the manager's back (e.g. a
        direct ``set_cells`` relabelling rows as ``'Other'``).
        """
        return self._reload({cat_col})

    def _reload(self, cat_cols: Iterable[str]) -> list[GroupKey]:
        """Re-read the tracked columns among ``cat_cols``; returns new keys."""
        tracked = [cat for cat in self._cat_cols if cat in cat_cols]
        if not tracked:
            return []
        row_ids = sorted(self.backend.all_row_ids())
        return [key for cat in tracked for key in self._load_column(cat, row_ids)]
