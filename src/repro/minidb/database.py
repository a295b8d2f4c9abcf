"""The :class:`Database` facade — minidb's public entry point.

Usage::

    db = Database()
    db.execute("CREATE TABLE people (name TEXT, age INT)")
    db.execute("INSERT INTO people VALUES (?, ?)", ("ada", 36))
    db.execute("CREATE INDEX idx_age ON people(age)")
    rows = db.execute("SELECT name FROM people WHERE age > ?", (30,)).rows

    stmt = db.prepare("SELECT name FROM people WHERE age > ?")
    rows = stmt.execute((30,)).rows   # parse + plan paid once

    with db.connect() as conn:        # a second, isolated session
        conn.execute("BEGIN")
        conn.execute("UPDATE people SET age = age + 1")
        conn.commit()

The execution surface is prepared-statement shaped (PEP 249-flavored):
``prepare()`` returns a :class:`~repro.minidb.prepared.PreparedStatement`
holding the parsed AST and a cached physical plan whose parameter slots
bind at execution time; ``execute``/``stream``/``executemany``/``explain``
are thin wrappers over it, and ``cursor()`` opens a DB-API-shaped
:class:`~repro.minidb.prepared.Cursor`.  ``db.plan_cache`` caches
prepared statements by SQL text (LRU, behind a lock — they are shared
across connections); each statement's plan is revalidated against the
``(schema_epoch, stats_version)`` pair so DDL, ``analyze()`` and
mutation-driven statistics rebuilds transparently re-plan.

Concurrency: :meth:`connect` opens an isolated
:class:`~repro.minidb.session.Connection` with snapshot-isolation reads
and first-updater-wins write conflicts (MVCC — see
``src/repro/minidb/ARCHITECTURE.md``).  The plain ``db.execute(...)``
surface *is* a session too (the default one): single-session use keeps
the legacy fast path, and the moment connections, transactions or
streaming cursors are live, its statements read through snapshots like
everyone else's.
"""

from __future__ import annotations

import json
import os
import threading
import weakref
from pathlib import Path

from repro.errors import CatalogError, DatabaseError, TransactionError
from repro.minidb import ast_nodes as ast
from repro.minidb.catalog import ColumnDef, IndexDef, TableSchema
from repro.minidb.invariants import holds_write_lock, wal_exempt
from repro.minidb.pager import PAGE_CATALOG, PAGE_SIZE, PagedHeap, Pager
from repro.minidb.parser import parse
from repro.minidb.plan_cache import PlanCache
from repro.minidb.prepared import Cursor, PreparedStatement
from repro.minidb.results import ResultSet, StreamingResult
from repro.minidb.session import Connection, Session
from repro.minidb.stats import StatsManager
from repro.minidb.storage import Table
from repro.minidb.transactions import TransactionManager
from repro.minidb.wal import WriteAheadLog

_DDL_STMTS = (
    ast.CreateTableStmt,
    ast.CreateIndexStmt,
    ast.DropTableStmt,
    ast.DropIndexStmt,
    ast.AlterAddColumnStmt,
)


_UNSET = object()


def _fsync_mode(value) -> str:
    """Normalize an fsync policy value to ``"commit"``, ``"group"`` or
    ``"off"``.  Booleans map to commit/off; the ``"group"`` string enables
    group commit (coalesced fsyncs across concurrent committers)."""
    if isinstance(value, str):
        lowered = value.lower()
        if lowered == "group":
            return "group"
        if lowered in ("off", "no", "false", "none", "0"):
            return "off"
        return "commit"
    return "commit" if value else "off"


_VECTORIZE_MODES = ("auto", "on", "off")


def _vectorize_mode(value) -> str:
    mode = str(value).lower()
    if mode not in _VECTORIZE_MODES:
        raise DatabaseError(
            f"vectorize must be one of {', '.join(_VECTORIZE_MODES)}"
        )
    return mode


class Database:
    """An in-process relational database with SQL, MVCC, indexes and a WAL.

    Open it two ways (``repro.minidb.connect`` is the front door):

    * ``Database()`` — in-memory (``":memory:"``): no durability and no
      WAL (``db.wal is None``).
    * ``Database("data.db")`` — file-backed: rows live on slotted
      4KB pages behind a buffer pool, every commit streams to
      ``data.db-wal`` (fsynced per the ``fsync`` option), and periodic
      checkpoints flush dirty pages so reopening replays only the WAL
      tail.  Close with :meth:`close` (or a ``with`` block); reopening
      the same path recovers all committed data.

    Open-time options (also settable later via :meth:`pragma`):
    ``pool_pages`` (buffer-pool budget, default 256 pages = 1MB),
    ``fsync`` (``True``/``"commit"``, ``False``/``"off"``, or
    ``"group"`` to coalesce concurrent commit fsyncs behind one
    barrier), ``wal_autocheckpoint`` (records between automatic
    checkpoints; 0 disables), ``vectorize``
    (``"auto"``/``"on"``/``"off"`` — batch execution mode, see
    ``ARCHITECTURE.md``), ``gc_interval`` (seconds between background
    GC passes; None/0 keeps GC commit-driven).
    """

    def __init__(self, path: str | os.PathLike | None = None, **options):
        pool_pages = int(options.pop("pool_pages", 256))
        fsync_mode = _fsync_mode(options.pop("fsync", True))
        fsync = fsync_mode != "off"
        autocheckpoint = int(options.pop("wal_autocheckpoint", 1000) or 0)
        vectorize = _vectorize_mode(options.pop("vectorize", "auto"))
        gc_interval = options.pop("gc_interval", None)
        if options:
            raise DatabaseError(
                f"unknown open option(s): {', '.join(sorted(options))}"
            )
        self.tables: dict[str, Table] = {}
        self.index_catalog: dict[str, IndexDef] = {}
        self.wal: WriteAheadLog | None = None
        self.path: Path | None = None
        self.pager: Pager | None = None
        self._closed = False
        self._fsync = fsync
        self._fsync_policy = fsync_mode
        self._autocheckpoint = autocheckpoint
        self._default_pool_pages = pool_pages
        self._gc_interval = float(gc_interval or 0.0)
        self.txn = TransactionManager()
        self.txn.gc_hook = self._gc_locked
        self.default_session = Session(self)
        # live connections, weakly held: close() must be able to tear
        # them down (releasing their cursors' snapshots) even when a
        # caller leaked one, without keeping dead ones alive
        self._connections: weakref.WeakSet = weakref.WeakSet()
        # cost-based planning: per-table statistics (lazily rebuilt; see
        # repro.minidb.stats)
        self.stats = StatsManager()
        # execution-mode knob: "auto" lets the planner pick batch
        # (vectorized) operators for analytic shapes, "on" forces them
        # wherever legal, "off" keeps the row-at-a-time pipeline
        self.vectorize = vectorize
        # advances on every DDL statement; one half of the plan-cache key
        self.schema_epoch = 0
        self.plan_cache = PlanCache()
        self._gc_thread: threading.Thread | None = None
        self._gc_stop: threading.Event | None = None
        if path is not None and str(path) != ":memory:":
            self._open_durable(Path(path), pool_pages, fsync)
        if self._gc_interval:
            self.start_background_gc(self._gc_interval)

    # -- public API ----------------------------------------------------------

    def connect(self) -> Connection:
        """Open an isolated session: own transactions, own cursors,
        snapshot-isolation reads (see ``ARCHITECTURE.md``)."""
        self._require_open()
        connection = Connection(self)
        self._connections.add(connection)
        return connection

    def prepare(self, sql: str) -> PreparedStatement:
        """Parse ``sql`` once and return its prepared statement.

        Statements are cached by SQL text in :attr:`plan_cache` (LRU,
        shared by every connection), so repeated ``prepare`` (and
        therefore ``execute``) calls with the same text return the same
        object — plan included.
        """
        self._require_open()
        prepared = self.plan_cache.get(sql)
        if prepared is None:
            prepared = self.plan_cache.add(
                sql, PreparedStatement(self, sql, parse(sql))
            )
        return prepared

    def cursor(self) -> Cursor:
        """A PEP 249-shaped cursor over this database (default session)."""
        return Cursor(self)

    def execute(self, sql: str, params: tuple | list = ()) -> ResultSet:
        """Prepare (with caching) and run one SQL statement."""
        return self.prepare(sql).execute(params)

    def stream(self, sql: str, params: tuple | list = ()) -> StreamingResult:
        """Run a SELECT lazily, returning a :class:`StreamingResult` cursor.

        Rows are computed as the cursor is consumed, so early termination
        (pagination, first-match probes, capped distinct counts) stops the
        scan instead of paying for the full result.  The cursor reads a
        snapshot taken when it was opened: interleaved DML — this
        session's or a concurrent connection's — does not change what it
        yields.  Cursors still open at :meth:`close` are closed with the
        database (their snapshots released).
        """
        result = self.prepare(sql).stream(params)
        return self.default_session.track_stream(result)

    def executemany(self, sql: str, param_rows) -> int:
        """Run one parameterized statement for each params tuple.

        Returns the total rowcount.  Parsing and planning happen once —
        bulk INSERT/UPDATE/DELETE re-executes one compiled plan per
        binding instead of re-planning per row.
        """
        return self.prepare(sql).executemany(param_rows)

    def table(self, name: str) -> Table:
        """The storage object for ``name`` (raises CatalogError when absent)."""
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(
                f"no table {name!r} (have: {', '.join(sorted(self.tables)) or 'none'})"
            ) from None

    def table_names(self) -> list[str]:
        """Names of all tables."""
        return sorted(self.tables)

    def has_table(self, name: str) -> bool:
        return name in self.tables

    def index_names(self, table: str | None = None) -> list[str]:
        """All index names, optionally restricted to one table."""
        return sorted(
            name for name, meta in self.index_catalog.items()
            if table is None or meta.table == table
        )

    def insert_rows(self, table_name: str, rows) -> list[int]:
        """Bulk-insert value tuples directly (fast path for data loading).

        The batch is all or nothing (:meth:`Table.insert_many`): arity is
        checked and values coerced before any row is stored, and a
        storage error mid-batch takes the rows already inserted back out.
        Every row gets its own change event and WAL record; one
        durability barrier covers the whole batch — the WAL is synced once
        at the end instead of per row.
        """
        table = self.table(table_name)
        with self.txn.lock:
            rowids = table.insert_many(rows)
        self._wal_barrier()
        return rowids

    def explain(self, sql: str, params: tuple | list = (),
                analyze: bool = False) -> str:
        """The query plan for ``sql`` as newline-joined text.

        Explains ``prepare(sql)`` — the same cached statement and plan
        slot that ``execute(sql)`` runs — so the first line reads
        ``cache: hit`` once the statement has been planned.
        ``analyze=True`` executes the statement (SELECT only) and shows
        estimated vs. actual rows for every operator.
        """
        return self.prepare(sql).explain(params, analyze=analyze)

    def analyze(self) -> None:
        """Force an immediate statistics rebuild for every table."""
        for table in self.tables.values():
            self.stats.analyze(table)

    def checkpoint(self) -> int:
        """Make pending work durable; returns WAL records retired.

        File-backed: flush dirty pages + catalog, stamp the heap header
        with the covered LSN, truncate the WAL — bounded-tail recovery.
        No-op (returns 0) in memory, which has nowhere to flush to.

        A durable checkpoint needs a quiescent transaction manager (no
        active transaction may leak uncommitted rows into the heap file);
        when writers are in flight it returns 0 and the caller retries
        later — the WAL still guarantees durability in the meantime.
        """
        if self.pager is None:
            return 0
        return self._checkpoint_durable()

    # -- durable lifecycle -------------------------------------------------------

    def pragma(self, name: str, value=_UNSET):
        """Get (one argument) or set (two) a database knob; returns the
        effective value.

        Config pragmas: ``pool_pages`` (buffer-pool budget),
        ``fsync`` (``"commit"``/``"group"``/``"off"``),
        ``wal_autocheckpoint`` (records between automatic checkpoints,
        0 disables), ``vectorize``
        (``"auto"``/``"on"``/``"off"``), ``gc_interval`` (background GC
        period in seconds, 0 stops the thread), ``page_size``
        (read-only).

        Action pragmas (no value): ``checkpoint``, ``vacuum`` — run the
        operation and return its count.  ``buffer_pool_stats`` returns
        the pager's hit/miss/eviction counters.
        """
        self._require_open()
        name = str(name).lower().replace("-", "_")
        setting = value is not _UNSET
        if name == "pool_pages":
            if setting:
                self._default_pool_pages = int(value)
                if self.pager is not None:
                    self.pager.resize_pool(int(value))
            return (self.pager.pool_pages if self.pager is not None
                    else self._default_pool_pages)
        if name == "fsync":
            if setting:
                self._fsync_policy = _fsync_mode(value)
                self._fsync = self._fsync_policy != "off"
                if self.pager is not None:
                    self.pager.fsync_enabled = self._fsync
                    self.wal.set_fsync(self._fsync)
                    self.wal.set_group_commit(self._fsync_policy == "group")
            return self._fsync_policy
        if name == "wal_autocheckpoint":
            if setting:
                self._autocheckpoint = int(value or 0)
            return self._autocheckpoint
        if name == "page_size":
            if setting:
                raise DatabaseError("pragma page_size is read-only")
            return PAGE_SIZE if self.pager is not None else None
        if name == "vectorize":
            if setting:
                self.vectorize = _vectorize_mode(value)
            return self.vectorize
        if name == "gc_interval":
            if setting:
                self.stop_background_gc()
                self._gc_interval = float(value or 0.0)
                if self._gc_interval:
                    self.start_background_gc(self._gc_interval)
            return self._gc_interval
        if name == "checkpoint":
            return self.checkpoint()
        if name == "vacuum":
            return self.vacuum()
        if name == "buffer_pool_stats":
            if self.pager is None:
                return {}
            return dict(self.pager.stats,
                        resident_pages=self.pager.resident_pages,
                        dirty_pages=self.pager.dirty_pages,
                        pool_pages=self.pager.pool_pages)
        raise DatabaseError(f"unknown pragma {name!r}")

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Flush, checkpoint (when quiescent) and release the database.

        Safe to call twice.  Any open default-session transaction is
        rolled back first, still-open connections are closed (rolling
        back their transactions and releasing any streaming cursors'
        snapshots, so a leaked connection cannot pin the GC horizon or
        block the final checkpoint).  For file-backed databases a clean
        close means
        the next open replays an empty WAL tail; if another connection
        still holds a transaction open, the checkpoint is skipped — the
        durable WAL already guarantees every *committed* transaction
        survives, so recovery simply replays a longer tail.
        """
        if self._closed:
            return
        self.stop_background_gc()
        for connection in list(self._connections):
            connection.close()
        self.default_session.close()
        self.maybe_gc()
        if self.pager is not None:
            self._checkpoint_durable()
            self.wal.close()
            self.pager.close()
        self._closed = True

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise DatabaseError("database is closed")

    def _open_durable(self, path: Path, pool_pages: int, fsync: bool) -> None:
        self.path = path
        self.pager = Pager(path, pool_pages=pool_pages, fsync=fsync)
        # the WAL sidecar lives next to the heap file, SQLite-style
        wal_path = path.with_name(path.name + "-wal")
        self.wal = WriteAheadLog(wal_path, fsync=fsync)
        self.wal.set_group_commit(self._fsync_policy == "group")
        # LSNs must stay monotonic across opens: the header's durable_lsn
        # is the recovery replay bound, so a fresh (truncated) WAL that
        # restarted at 1 would stamp new commits below it and bounded
        # replay would silently skip them after the next crash
        if self.wal.next_lsn <= self.pager.durable_lsn:
            self.wal.next_lsn = self.pager.durable_lsn + 1
        try:
            self._recover()
        except BaseException:
            # a file this version refuses must not leave its handles open
            self.wal.close()
            self.pager.close()
            raise

    @wal_exempt("recovery rebuilds state the catalog page and WAL already "
                "record; relogging it would double history")
    def _recover(self) -> None:
        """Rebuild in-memory state from the heap file + WAL tail.

        Order matters: (1) the checkpointed catalog restores schemas,
        page-backed heaps and index definitions; (2) free pages are
        recomputed as "allocated but reachable from nothing" (there is no
        durable free list); (3) the WAL tail — records past the header's
        ``durable_lsn`` — replays *tolerantly*, because a checkpoint torn
        between page flush and WAL truncation may leave records that are
        already reflected in the heap; (4) a replayed tail is folded into
        a fresh checkpoint so the next open starts clean.
        """
        pager = self.pager
        with self.txn.lock:
            reachable: set[int] = set()
            if pager.catalog_page:
                reachable.update(pager.chain_pids(pager.catalog_page))
                catalog = json.loads(
                    pager.read_chain(pager.catalog_page).decode("utf-8")
                )
                for entry in catalog.get("tables", ()):
                    schema = TableSchema.from_dict(entry["schema"])
                    table = Table(schema)
                    self._attach(table)
                    heap = PagedHeap(pager, entry["first_page"])
                    reachable.update(heap.load())
                    table.rows = heap
                    table.next_rowid = max(
                        int(entry.get("next_rowid", 1)), heap.max_rowid() + 1
                    )
                    self.tables[schema.name] = table
                for entry in catalog.get("indexes", ()):
                    meta = IndexDef.from_dict(entry)
                    self.table(meta.table).create_index(
                        meta.name, meta.columns, unique=meta.unique,
                    )
                    self.index_catalog[meta.name] = meta
                self.schema_epoch += 1
            pager.set_free_pages(
                set(range(1, pager.page_count)) - reachable
            )
            applied = self.wal.replay_into(
                self, after_lsn=pager.durable_lsn, tolerant=True
            )
            if applied:
                # fold the replayed tail into a fresh checkpoint: the next
                # open replays nothing
                self._checkpoint_durable()

    def _serialize_catalog(self) -> dict:
        tables = []
        for name in sorted(self.tables):
            table = self.tables[name]
            tables.append({
                "schema": table.schema.to_dict(),
                "next_rowid": table.next_rowid,
                "first_page": table.rows.first_page,
            })
        return {
            "tables": tables,
            "indexes": [self.index_catalog[name].to_dict()
                        for name in sorted(self.index_catalog)],
        }

    def _checkpoint_durable(self) -> int:
        """Flush the heap and truncate the WAL; returns records retired.

        The sequence is crash-safe at every step: (1) sync the WAL — no
        logged record may be lost while pages move; (2) write a fresh
        catalog chain and flush every dirty page; (3) fsync the new file
        header (catalog pointer + durable LSN) — the checkpoint's atomic
        commit point; (4) only then recycle freed pages and truncate the
        WAL.  A crash before (3) recovers from the old header and full
        WAL; a crash after (3) but before (4) replays a tail that is
        already in the heap — which tolerant replay makes idempotent.
        """
        pager = self.pager
        manager = self.txn
        with manager.lock:
            if not manager.quiescent:
                return 0  # an active txn's rows are not committed state
            flushed = len(self.wal.records)
            self.wal.sync()
            old_catalog = pager.catalog_page
            blob = json.dumps(
                self._serialize_catalog(), default=str
            ).encode("utf-8")
            pager.catalog_page = pager.write_chain(blob, PAGE_CATALOG)
            if old_catalog:
                pager.free_chain(old_catalog)
            pager.flush(sync=True)
            pager.durable_lsn = self.wal.next_lsn - 1
            pager.write_header(sync=True)
            pager.promote_pending_free()
            self.wal.reset_after_checkpoint()
            return flushed

    def _wal_barrier(self) -> None:
        """Durability point after an autocommitted statement or COMMIT:
        fsync the WAL tail (policy permitting), then checkpoint if the
        log or the dirty-page count has outgrown its threshold."""
        if self.pager is None:
            return
        self.wal.sync()
        self._maybe_autocheckpoint()

    def _maybe_autocheckpoint(self) -> None:
        if self.pager is None or self._autocheckpoint <= 0:
            return
        if (len(self.wal.records) >= self._autocheckpoint
                or self.pager.dirty_pages > self.pager.pool_pages):
            self._checkpoint_durable()

    # -- MVCC lifecycle ---------------------------------------------------------

    def mvcc_engaged(self) -> bool:
        """True when statements must read through snapshots: transactions,
        registered snapshots or connections are live, or version chains
        are still awaiting garbage collection.  False is the quiescent
        single-session fast path."""
        manager = self.txn
        if (manager.active or manager.open_connections
                or manager.outstanding_snapshots):
            return True
        for table in self.tables.values():
            if table.versions:
                return True
        return False

    def commit_transaction(self, txn) -> None:
        """Commit ``txn``: flip visibility, flush its events to the WAL
        (one atomic commit record for explicit transactions, flat records
        for implicit per-statement ones), then let GC advance."""
        manager = self.txn
        with manager.lock:
            events = manager.commit(txn)
            if self.wal is not None and events:
                if txn.implicit:
                    for event in events:
                        self.wal.log_event(event)
                else:
                    self.wal.log_commit(txn.txid, events)
        self.maybe_gc()
        self._wal_barrier()

    def maybe_gc(self) -> None:
        """Reclaim dead versions if the horizon allows (cheap when clean)."""
        manager = self.txn
        with manager.lock:
            self._gc_locked()

    @holds_write_lock
    def _gc_locked(self) -> None:
        manager = self.txn
        dirty = [t for t in self.tables.values() if t.versions]
        if not dirty:
            return
        horizon = manager.horizon()
        for table in dirty:
            table.gc(horizon, manager.is_active)

    def vacuum(self) -> int:
        """Force a full garbage-collection pass; returns chains retired."""
        manager = self.txn
        with manager.lock:
            horizon = manager.horizon()
            return sum(
                table.gc(horizon, manager.is_active)
                for table in self.tables.values()
                if table.versions
            )

    def start_background_gc(self, interval: float = 0.25) -> None:
        """Run :meth:`maybe_gc` on a daemon thread every ``interval``
        seconds — for long-lived multi-connection workloads, so dead
        versions are reclaimed even between commits."""
        if self._gc_thread is not None:
            return
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(interval):
                self.maybe_gc()

        thread = threading.Thread(target=loop, name="minidb-gc", daemon=True)
        self._gc_stop = stop
        self._gc_thread = thread
        thread.start()

    def stop_background_gc(self) -> None:
        if self._gc_thread is None:
            return
        self._gc_stop.set()
        self._gc_thread.join(timeout=5.0)
        self._gc_thread = None
        self._gc_stop = None

    # -- internals -------------------------------------------------------------

    def _ambient_txn(self):
        """The default session's open transaction (direct storage
        mutations made without an explicit ``txn=`` join it)."""
        return self.default_session.txn

    def _dispatch(self, statement: ast.Statement, sql: str,
                  session: Session | None = None) -> ResultSet:
        """Run a DDL or transaction-control statement (everything with
        no plan to cache)."""
        if session is None:
            session = self.default_session
        if isinstance(statement, _DDL_STMTS):
            if session.in_transaction:
                # DDL is not transactional: logging it from inside a
                # transaction that later rolls back would leave the WAL
                # claiming schema that never survived (see ISSUE 5)
                raise TransactionError(
                    "DDL is not allowed inside an explicit transaction; "
                    "COMMIT or ROLLBACK first"
                )
            with self.txn.lock:
                if isinstance(statement, ast.CreateTableStmt):
                    result = self._create_table(statement, sql)
                elif isinstance(statement, ast.CreateIndexStmt):
                    result = self._create_index(statement, sql)
                elif isinstance(statement, ast.DropTableStmt):
                    result = self._drop_table(statement, sql)
                elif isinstance(statement, ast.DropIndexStmt):
                    result = self._drop_index(statement, sql)
                else:
                    result = self._alter_add_column(statement, sql)
            self._wal_barrier()
            return result
        if isinstance(statement, ast.BeginStmt):
            session.begin()
            return ResultSet([], [], rowcount=0)
        if isinstance(statement, ast.CommitStmt):
            session.commit()
            return ResultSet([], [], rowcount=0)
        if isinstance(statement, ast.RollbackStmt):
            session.rollback()
            return ResultSet([], [], rowcount=0)
        raise DatabaseError(f"cannot execute {type(statement).__name__}")

    def _on_change(self, event: tuple) -> None:
        """Change hook for mutations outside any transaction (transaction
        writes buffer their events on the transaction itself)."""
        if self.txn.replaying:
            return
        if self.wal is not None:
            self.wal.log_event(event)

    def _attach(self, table: Table) -> None:
        table.on_change = self._on_change
        table.manager = self.txn
        table.ambient_txn = self._ambient_txn

    # -- DDL -----------------------------------------------------------------

    @holds_write_lock
    def _create_table(self, statement: ast.CreateTableStmt, sql: str) -> ResultSet:
        if statement.name in self.tables:
            if statement.if_not_exists:
                return ResultSet([], [], rowcount=0)
            raise CatalogError(f"table {statement.name!r} already exists")
        schema = TableSchema(
            statement.name,
            [ColumnDef.make(c.name, c.type_name) for c in statement.columns],
        )
        table = Table(schema)
        self._attach(table)
        if self.pager is not None:
            # file-backed: rows live on slotted pages, not the dict
            table.rows = PagedHeap(self.pager)
        self.tables[statement.name] = table
        self.schema_epoch += 1
        if self.wal is not None and not self.txn.replaying:
            self.wal.log_ddl(sql)
        return ResultSet([], [], rowcount=0)

    @holds_write_lock
    def _create_index(self, statement: ast.CreateIndexStmt, sql: str) -> ResultSet:
        if statement.name in self.index_catalog:
            if statement.if_not_exists:
                return ResultSet([], [], rowcount=0)
            raise CatalogError(f"index {statement.name!r} already exists")
        table = self.table(statement.table)
        # column validation happens in Table.create_index before any key is
        # built, so a typo'd column raises a CatalogError naming it
        table.create_index(
            statement.name, statement.columns, unique=statement.unique,
        )
        self.index_catalog[statement.name] = IndexDef(
            statement.name, statement.table, statement.columns,
            statement.unique,
        )
        self.schema_epoch += 1
        if self.wal is not None and not self.txn.replaying:
            self.wal.log_ddl(sql)
        return ResultSet([], [], rowcount=0)

    @holds_write_lock
    def _drop_table(self, statement: ast.DropTableStmt, sql: str) -> ResultSet:
        if statement.name not in self.tables:
            if statement.if_exists:
                return ResultSet([], [], rowcount=0)
            raise CatalogError(f"no table {statement.name!r}")
        dropped = self.tables[statement.name]
        del self.tables[statement.name]
        if isinstance(dropped.rows, PagedHeap):
            dropped.rows.release()  # pages recycle after the next checkpoint
        self.stats.forget(statement.name)
        for index_name in [
            n for n, meta in self.index_catalog.items() if meta.table == statement.name
        ]:
            del self.index_catalog[index_name]
        self.schema_epoch += 1
        # drops must be WAL-logged like every other DDL, or replay
        # resurrects the dropped table (and its rows) after recovery
        if self.wal is not None and not self.txn.replaying:
            self.wal.log_ddl(sql)
        return ResultSet([], [], rowcount=0)

    @holds_write_lock
    def _drop_index(self, statement: ast.DropIndexStmt, sql: str) -> ResultSet:
        meta = self.index_catalog.get(statement.name)
        if meta is None:
            if statement.if_exists:
                return ResultSet([], [], rowcount=0)
            raise CatalogError(f"no index {statement.name!r}")
        self.table(meta.table).drop_index(statement.name)
        del self.index_catalog[statement.name]
        self.schema_epoch += 1
        if self.wal is not None and not self.txn.replaying:
            self.wal.log_ddl(sql)
        return ResultSet([], [], rowcount=0)

    @holds_write_lock
    def _alter_add_column(self, statement: ast.AlterAddColumnStmt, sql: str) -> ResultSet:
        table = self.table(statement.table)
        table.add_column(ColumnDef.make(statement.column.name, statement.column.type_name))
        self.schema_epoch += 1
        if self.wal is not None and not self.txn.replaying:
            self.wal.log_ddl(sql)
        return ResultSet([], [], rowcount=0)
