"""The backend write cache (§3.2 'Interactive feedback').

"Buckaroo maintains a backend cache.  When a data group is modified, only
the affected rows in the backend cache are updated.  To balance performance
and persistence, Buckaroo periodically flushes these changes to the Postgres
database—by default, after every three updates, which can be configured by
the user."

In this reproduction the cache sits in front of the backend's ``flush()``:
every applied repair counts as one update; each ``flush_interval``-th
update triggers a flush.  On a file-backed SQL backend a flush is a
durable checkpoint (dirty pages reach the heap file, the WAL empties); in
memory, and on the frame backend, it is a no-op that retires nothing.
"""

from __future__ import annotations

from repro.backends.base import Backend


class WriteCache:
    """Counts updates and flushes the backend every N operations."""

    def __init__(self, backend: Backend, flush_interval: int = 3):
        if flush_interval < 1:
            raise ValueError("flush_interval must be at least 1")
        self.backend = backend
        self.flush_interval = flush_interval
        self.pending = 0
        self.total_updates = 0
        self.total_flushes = 0
        self.records_flushed = 0

    def notify_update(self) -> bool:
        """Record one applied operation; flush when the interval is reached.

        Returns True when a flush happened.
        """
        self.pending += 1
        self.total_updates += 1
        if self.pending >= self.flush_interval:
            self.force_flush()
            return True
        return False

    def force_flush(self) -> int:
        """Flush immediately; returns records flushed by the backend."""
        flushed = self.backend.flush()
        self.records_flushed += flushed
        self.total_flushes += 1
        self.pending = 0
        return flushed
