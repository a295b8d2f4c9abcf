"""Differential snapshots.

The paper's storage layer avoids "the overhead of storing full copies after
each repair" (§6.3) by recording, per wrangling operation, only the rows it
deleted, inserted, or updated.  A :class:`DeltaSnapshot` is exactly that
record; it is invertible (undo), composable (compaction), and
JSON-serializable (persistence).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import SnapshotError


@dataclass
class DeltaSnapshot:
    """The difference between two consecutive dataset states.

    Attributes:
        deleted: ``row_id -> {column: value}`` — full content of removed rows.
        inserted: ``row_id -> {column: value}`` — full content of added rows.
        updated: ``row_id -> {column: (old, new)}`` — changed cells.
        label: free-form provenance (usually the repair description).
    """

    deleted: dict = field(default_factory=dict)
    inserted: dict = field(default_factory=dict)
    updated: dict = field(default_factory=dict)
    label: str = ""

    # -- queries ---------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when the delta records no change."""
        return not (self.deleted or self.inserted or self.updated)

    def row_ids(self) -> set:
        """Every row id the delta touches."""
        return set(self.deleted) | set(self.inserted) | set(self.updated)

    def size_bytes(self) -> int:
        """Approximate serialized size — the storage-efficiency metric."""
        return len(json.dumps(self.to_dict(), default=str))

    # -- algebra ---------------------------------------------------------------

    def inverse(self) -> "DeltaSnapshot":
        """The delta that undoes this one."""
        return DeltaSnapshot(
            deleted=dict(self.inserted),
            inserted=dict(self.deleted),
            updated={
                row_id: {col: (new, old) for col, (old, new) in cells.items()}
                for row_id, cells in self.updated.items()
            },
            label=f"undo({self.label})" if self.label else "undo",
        )

    def compose(self, later: "DeltaSnapshot") -> "DeltaSnapshot":
        """The single delta equivalent to applying ``self`` then ``later``.

        Used by snapshot compaction to merge runs of small deltas.
        """
        deleted = dict(self.deleted)
        inserted = dict(self.inserted)
        updated = {row: dict(cells) for row, cells in self.updated.items()}

        for row_id, cells in later.updated.items():
            if row_id in inserted:
                # row created by self, then modified: fold into the insert
                for col, (_old, new) in cells.items():
                    inserted[row_id][col] = new
            elif row_id in updated:
                for col, (old, new) in cells.items():
                    if col in updated[row_id]:
                        first_old = updated[row_id][col][0]
                        updated[row_id][col] = (first_old, new)
                    else:
                        updated[row_id][col] = (old, new)
            else:
                updated[row_id] = dict(cells)

        for row_id, values in later.deleted.items():
            if row_id in inserted:
                # created then destroyed within the window: net nothing
                del inserted[row_id]
                continue
            original = dict(values)
            if row_id in updated:
                # record the row as it was *before* self's updates
                for col, (old, _new) in updated.pop(row_id).items():
                    original[col] = old
            deleted[row_id] = original

        for row_id, values in later.inserted.items():
            if row_id in deleted:
                original = deleted.pop(row_id)
                changes = {
                    col: (original.get(col), value)
                    for col, value in values.items()
                    if original.get(col) != value
                }
                if changes:
                    updated[row_id] = changes
            else:
                inserted[row_id] = dict(values)

        label = " + ".join(part for part in (self.label, later.label) if part)
        return DeltaSnapshot(deleted, inserted, updated, label)

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form for JSON storage."""
        return {
            "label": self.label,
            "deleted": {str(k): v for k, v in self.deleted.items()},
            "inserted": {str(k): v for k, v in self.inserted.items()},
            "updated": {
                str(row_id): {col: [old, new] for col, (old, new) in cells.items()}
                for row_id, cells in self.updated.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DeltaSnapshot":
        """Inverse of :meth:`to_dict`."""
        try:
            return cls(
                deleted={int(k): dict(v) for k, v in data.get("deleted", {}).items()},
                inserted={int(k): dict(v) for k, v in data.get("inserted", {}).items()},
                updated={
                    int(row_id): {col: (pair[0], pair[1]) for col, pair in cells.items()}
                    for row_id, cells in data.get("updated", {}).items()
                },
                label=data.get("label", ""),
            )
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            raise SnapshotError(f"malformed delta payload: {exc}") from exc
