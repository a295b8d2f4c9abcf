"""Snapshot stores: differential vs. full-copy.

:class:`DifferentialStore` is what the session uses — it keeps one
:class:`~repro.snapshots.delta.DeltaSnapshot` per wrangling operation and can
persist them as JSON lines.  :class:`FullCopyStore` is the strawman the paper
argues against ("avoiding the overhead of storing full copies after each
repair", §6.3); it exists so the A3 ablation benchmark can measure the gap.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import SnapshotError
from repro.snapshots.delta import DeltaSnapshot


class DifferentialStore:
    """Ordered log of deltas with byte accounting and persistence."""

    kind = "differential"

    def __init__(self) -> None:
        self._deltas: list[DeltaSnapshot] = []

    def __len__(self) -> int:
        return len(self._deltas)

    def record(self, delta: DeltaSnapshot) -> None:
        """Append one operation's delta."""
        self._deltas.append(delta)

    def deltas(self) -> list[DeltaSnapshot]:
        """The recorded deltas, oldest first (do not mutate)."""
        return list(self._deltas)

    def total_bytes(self) -> int:
        """Total approximate storage for all recorded snapshots."""
        return sum(delta.size_bytes() for delta in self._deltas)

    def cumulative(self) -> DeltaSnapshot:
        """All recorded deltas composed into one."""
        combined = DeltaSnapshot()
        for delta in self._deltas:
            combined = combined.compose(delta)
        return combined

    def compact(self, keep_last: int = 0) -> int:
        """Merge all but the last ``keep_last`` deltas into one.

        Returns the number of deltas eliminated.  Compaction preserves the
        cumulative effect but individual undo steps inside the compacted
        prefix are no longer addressable — the session only compacts below
        its undo horizon.
        """
        if keep_last < 0:
            raise SnapshotError("keep_last must be non-negative")
        boundary = len(self._deltas) - keep_last
        if boundary <= 1:
            return 0
        head = self._deltas[:boundary]
        combined = DeltaSnapshot()
        for delta in head:
            combined = combined.compose(delta)
        removed = len(head) - 1
        self._deltas = [combined] + self._deltas[boundary:]
        return removed

    def save(self, path: str | Path) -> None:
        """Write the store as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for delta in self._deltas:
                handle.write(json.dumps(delta.to_dict()) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "DifferentialStore":
        """Read a store back from JSON lines."""
        store = cls()
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    store.record(DeltaSnapshot.from_dict(json.loads(line)))
        return store


class FullCopyStore:
    """Stores a full copy of the dataset after every operation (baseline)."""

    kind = "full"

    def __init__(self) -> None:
        self._states: list[dict] = []

    def __len__(self) -> int:
        return len(self._states)

    def record_state(self, rows: dict) -> None:
        """Store a deep copy of ``row_id -> {column: value}``."""
        self._states.append({
            row_id: dict(values) for row_id, values in rows.items()
        })

    def state(self, index: int) -> dict:
        """The stored state at position ``index``."""
        return self._states[index]

    def total_bytes(self) -> int:
        """Total approximate storage for all stored copies."""
        return sum(
            len(json.dumps(state)) for state in self._states
        )
