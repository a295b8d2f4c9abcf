"""Write-ahead log: the durable ``<path>-wal`` sidecar of a file-backed database.

This implements the persistence half of the paper's storage layer (Fig 2 ⑤):
the backend cache batches updates and "periodically flushes these changes to
the Postgres database" (§3.2).  In this reproduction, a flush is a
checkpoint: dirty pages reach the heap file and the log empties.  An
in-memory database has nowhere to flush to, so it keeps no log at all.

Records are JSON-serializable dicts, one per line::

    {"op": "insert", "table": t, "rowid": r, "values": [...], "lsn": n}
    {"op": "delete", "table": t, "rowid": r, "values": [...], "lsn": n}
    {"op": "update", "table": t, "rowid": r, "old": {...}, "new": {...}, "lsn": n}
    {"op": "ddl", "sql": "CREATE TABLE ...", "lsn": n}
    {"op": "commit", "txid": n, "events": [record, ...], "lsn": n}

Every record carries a monotonically increasing **LSN** (log sequence
number).  LSNs are what bound recovery: a checkpoint durably records the
LSN it covered in the heap file header, and replay skips records at or
below that watermark instead of re-applying history already flushed to
stable storage.

Every record is written to the file the moment it is logged, and
:meth:`sync` fsyncs at commit boundaries, so committed work survives a
crash.  Transactional writes reach the log only through an atomic
``commit`` record written at COMMIT time (the events of an open
transaction are buffered on the transaction object, never in the log),
so a crash — losing everything after the last durable record — loses
whole transactions, never halves of them, and replay reconstructs
exactly the committed ones.  The heap file holds checkpointed state, so
a completed checkpoint *empties* the log (:meth:`reset_after_checkpoint`)
and recovery replays only the tail.
"""

from __future__ import annotations

import json
import os
import re
import threading
from pathlib import Path

from repro.errors import CatalogError, DatabaseError, SQLSyntaxError
from repro.minidb.catalog import partitioned_table_error
from repro.minidb.invariants import holds_write_lock, wal_exempt

# ``CREATE TABLE name (...) PARTITION BY ...``, which older versions logged
_PARTITIONED_CREATE = re.compile(
    r'\s*CREATE\s+TABLE\s+(?:IF\s+NOT\s+EXISTS\s+)?"?(\w+)"?\s*\(.*\)\s*PARTITION\s+BY\b',
    re.IGNORECASE | re.DOTALL,
)


class WriteAheadLog:
    """The append-only log file of a file-backed database.

    Opening reads the existing records back into :attr:`records` for
    recovery replay; a torn tail — a final line cut short by a crash
    mid-append — is truncated away, which is safe because an incomplete
    record was by definition never acknowledged as committed.  The log
    then holds an open append handle: every subsequent record hits the
    file immediately and :meth:`sync` makes it durable.
    """

    def __init__(self, path: str | Path, fsync: bool = True):
        self.path = Path(path)
        #: records logged since the last checkpoint, oldest first
        self.records: list[dict] = []
        #: next LSN to assign; LSNs start at 1
        self.next_lsn = 1
        self._fsync = bool(fsync)
        self._unsynced = False
        #: fsync syscalls issued so far — commits / fsyncs is the group
        #: commit coalescing ratio (1.0 without contention)
        self.fsync_count = 0
        # group commit (``pragma("fsync", "group")``): concurrent
        # committers elect one leader whose single flush+fsync covers
        # every record appended before it started; the rest wait on the
        # condition until the durable watermark reaches their target LSN
        self._group = False
        self._cond = threading.Condition()
        self._flushing = False
        self._synced_lsn = 0
        # serializes appends against a leader's flush so a record line is
        # never torn across the text wrapper's buffer mid-drain
        self._io_lock = threading.Lock()
        self._read_back()
        self._handle = open(self.path, "a", encoding="utf-8")

    def _read_back(self) -> None:
        """Load the records already on disk, truncating a torn tail."""
        if not self.path.exists():
            return
        with open(self.path, "rb") as handle:
            raw = handle.read()
        offset = 0
        for line in raw.splitlines(keepends=True):
            if not line.endswith(b"\n"):
                break  # torn tail: record never fully reached disk
            text = line.strip()
            if text:
                try:
                    record = json.loads(text.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    break  # corrupt from here on: drop the tail
                lsn = record.get("lsn")
                if lsn is not None and lsn >= self.next_lsn:
                    self.next_lsn = lsn + 1
                self.records.append(record)
            offset += len(line)
        if offset < len(raw):
            with open(self.path, "r+b") as handle:
                handle.truncate(offset)

    def __len__(self) -> int:
        return len(self.records)

    @staticmethod
    def encode_event(event: tuple) -> dict:
        """A change event (as emitted by Table mutations) as a record."""
        op = event[0]
        if op == "insert" or op == "delete":
            _, table, rowid, values = event
            return {"op": op, "table": table, "rowid": rowid,
                    "values": list(values)}
        if op == "update":
            _, table, rowid, old, new = event
            return {
                "op": "update", "table": table, "rowid": rowid,
                "old": {str(k): v for k, v in old.items()},
                "new": {str(k): v for k, v in new.items()},
            }
        raise DatabaseError(f"cannot log unknown event kind {op!r}")

    def _append(self, record: dict) -> None:
        """Stamp the next LSN onto ``record`` and write it to the file."""
        record["lsn"] = self.next_lsn
        self.next_lsn += 1
        self.records.append(record)
        with self._io_lock:
            self._handle.write(json.dumps(record, default=str) + "\n")
        self._unsynced = True

    def log_event(self, event: tuple) -> None:
        """Record one autocommitted storage change event."""
        self._append(self.encode_event(event))

    def log_commit(self, txid: int, events) -> None:
        """Record a whole committed transaction as one atomic record."""
        self._append({
            "op": "commit", "txid": txid,
            "events": [self.encode_event(event) for event in events],
        })

    def log_ddl(self, sql: str) -> None:
        """Record a schema change as its SQL text."""
        self._append({"op": "ddl", "sql": sql})

    def set_fsync(self, enabled: bool) -> None:
        """Switch the fsync policy (``PRAGMA fsync``)."""
        self._fsync = bool(enabled)

    def set_group_commit(self, enabled: bool) -> None:
        """Switch group commit on or off (``pragma("fsync", "group")``).

        With group commit, concurrent :meth:`sync` callers coalesce: one
        becomes the flush leader, the rest block until the durable
        watermark covers the last LSN they logged.  Committers that
        arrive while a flush is in flight are covered by the *next*
        leader's single fsync instead of issuing their own.
        """
        with self._cond:
            self._group = bool(enabled)
            if self._group and not self._unsynced:
                # everything logged so far is already on stable storage
                # (or there is nothing yet) — start the watermark there
                # so the first group sync has no phantom backlog
                self._synced_lsn = self.next_lsn - 1
            self._cond.notify_all()

    def sync(self) -> None:
        """Make every logged record durable (commit boundary).

        Flushes the append handle and — unless the fsync policy is off —
        fsyncs it.  No-op once the log is closed.  Under group commit this
        blocks until a leader's fsync covers this caller's records
        (possibly our own flush, possibly a concurrent one).
        """
        if self._handle is None:
            return
        if not self._group:
            if not self._unsynced:
                return
            self._handle.flush()
            if self._fsync:
                os.fsync(self._handle.fileno())
                self.fsync_count += 1
            self._unsynced = False
            return
        with self._cond:
            # everything we could have logged is below this LSN; once the
            # watermark passes it, some leader's barrier covered us
            target = self.next_lsn - 1
            while True:
                if self._synced_lsn >= target:
                    return
                if not self._flushing:
                    break
                self._cond.wait()
            self._flushing = True
            covered = self.next_lsn - 1
        try:
            with self._io_lock:
                self._handle.flush()
            if self._fsync:
                os.fsync(self._handle.fileno())
                self.fsync_count += 1
        finally:
            with self._cond:
                self._flushing = False
                if covered > self._synced_lsn:
                    self._synced_lsn = covered
                if self.next_lsn - 1 <= covered:
                    self._unsynced = False
                self._cond.notify_all()

    def size_bytes(self) -> int:
        """Approximate serialized size of the pending log."""
        return sum(len(json.dumps(record, default=str)) for record in self.records)

    def reset_after_checkpoint(self) -> int:
        """Empty the log after a completed heap checkpoint.

        Everything logged so far is now reflected in the flushed heap
        file, so the log contributes nothing to recovery: truncate the
        file and the in-memory tail.  Returns the records retired.
        """
        flushed = len(self.records)
        self.records.clear()
        with self._io_lock:
            self._handle.seek(0)
            self._handle.truncate()
            self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())
        self._unsynced = False
        with self._cond:
            # the heap now holds everything; the empty log is durable
            self._synced_lsn = self.next_lsn - 1
            self._cond.notify_all()
        return flushed

    def replay_into(self, db, after_lsn: int = 0, tolerant: bool = False) -> int:
        """Apply the logged records to ``db``; returns count.

        DDL records are executed as SQL; data records are applied directly
        to storage, preserving rowids.  ``commit`` records apply their
        transaction's events as a unit.

        ``after_lsn`` bounds replay: records at or below it are skipped
        (they are already reflected in a checkpointed heap).  ``tolerant``
        replay is idempotent — inserts overwrite an existing rowid,
        deletes/updates of a missing rowid and re-run DDL (a
        ``CatalogError``) are skipped — which is what crash recovery needs
        when a checkpoint tore between flushing pages and truncating the
        log.  DDL the parser refuses is never skipped: a partitioned
        ``CREATE TABLE`` raises the catalog's named error, anything else an
        ``SQLSyntaxError`` naming the record's LSN.
        """
        applied = 0
        # Replay mutates storage directly, so it must serialize against
        # live writers like any other mutation.  The lock is reentrant:
        # DDL records re-enter it through db.execute's dispatch.
        with db.txn.lock:
            was_replaying = db.txn.replaying
            db.txn.replaying = True
            try:
                for record in self.records:
                    lsn = record.get("lsn")
                    if lsn is not None and lsn <= after_lsn:
                        continue
                    if record["op"] == "commit":
                        for event in record["events"]:
                            self._apply(db, event, tolerant)
                    else:
                        self._apply(db, record, tolerant)
                    applied += 1
            finally:
                db.txn.replaying = was_replaying
        return applied

    @staticmethod
    @holds_write_lock
    @wal_exempt("replay applies records already in the log; relogging "
                "them would double every event")
    def _apply(db, record: dict, tolerant: bool = False) -> None:
        op = record["op"]
        if op == "ddl":
            sql = record["sql"]
            try:
                db.execute(sql)
            except CatalogError:
                if not tolerant:  # re-run DDL: the object already exists
                    raise
            except SQLSyntaxError as exc:
                partitioned = _PARTITIONED_CREATE.match(sql)
                if partitioned:
                    raise partitioned_table_error(partitioned.group(1)) from exc
                raise SQLSyntaxError(
                    f"cannot replay DDL at lsn {record.get('lsn')}: {exc}"
                ) from exc
        elif op == "insert":
            table = db.table(record["table"])
            if tolerant and record["rowid"] in table.rows:
                table.delete(record["rowid"])
            table.insert(record["values"], rowid=record["rowid"])
        elif op == "delete":
            table = db.table(record["table"])
            if tolerant and record["rowid"] not in table.rows:
                return
            table.delete(record["rowid"])
        elif op == "update":
            table = db.table(record["table"])
            if tolerant and record["rowid"] not in table.rows:
                return
            changes = {int(k): v for k, v in record["new"].items()}
            table.update(record["rowid"], changes)

    def close(self) -> None:
        """Flush and release the append handle (idempotent)."""
        if self._handle is None:
            return
        self.sync()
        self._handle.close()
        self._handle = None
