"""Row storage for minidb tables: multi-version chains with a fast path.

A :class:`Table` keeps two views of its rows:

* ``rows`` — the *current* state (``rowid -> list of values``), exactly
  the dict older single-session code reads.  All legacy callers (the
  backends, the executor's fast path) keep working
  against it unchanged.
* ``versions`` — sparse version chains (``rowid -> [RowVersion, ...]``,
  oldest first), populated **only** for rows touched while transactions
  or snapshots are live.  Each version is stamped with the transaction
  that created it and, once deleted, the transaction that deleted it;
  snapshot reads resolve through the chain (see
  :func:`visible_version`), so an open cursor streams a consistent view
  regardless of interleaved DML.

When the database is quiescent (no open connections, transactions or
snapshots — the classic single-session case) mutations take the legacy
in-place path: no chain is materialized, no transaction id is burned,
and reads cost exactly what they did before MVCC.  The only residue is
one ``versions.get`` branch on snapshot reads — the "version-stamp check
is branch-cheap when only one transaction exists" contract.

Versioned mutations are copy-on-write (an UPDATE builds a new value
list and keeps the old one in the chain) and *additive* in the indexes:
new keys are inserted but old keys stay until garbage collection, so a
snapshot reader probing an index still finds the row under the key its
version carries.  Probes therefore re-check a chained row's visible key
against the index entry — see the executor.  :meth:`Table.gc` reclaims
versions behind the transaction manager's horizon and drops the stale
index entries with them.

Affinity is what lets dirty data live in typed columns, exactly as in
the paper's Postgres prototype: inserting ``"12k"`` into a REAL column
keeps the text (it does not parse), producing the type mismatch Buckaroo
later detects.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterator

from repro.errors import CatalogError, IntegrityError, SerializationError
from repro.minidb.catalog import INTEGER, NONE, REAL, TEXT, ColumnDef, TableSchema
from repro.minidb.btree import BTreeIndex
from repro.minidb.invariants import holds_write_lock, wal_exempt
from repro.minidb.transactions import ANCIENT

#: rows decoded per chunk while an index build reads the heap
_BUILD_CHUNK = 1024
#: rows coerced per chunk by a batch insert
_COERCE_CHUNK = 1024

ChangeEvent = tuple
"""('insert', table, rowid, values) | ('delete', table, rowid, values)
| ('update', table, rowid, {position: old}, {position: new})"""


class RowVersion:
    """One version of a row: immutable values plus its lifespan stamps."""

    __slots__ = ("values", "created", "deleted")

    def __init__(self, values: list, created: int, deleted: int | None = None):
        self.values = values
        self.created = created
        self.deleted = deleted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RowVersion(created={self.created}, deleted={self.deleted})"


def visible_version(chain: list, snapshot) -> RowVersion | None:
    """The newest version of ``chain`` visible to ``snapshot`` (or None).

    Newest-first walk: the first version whose creator the snapshot can
    see decides — if that version is also visibly deleted, the row does
    not exist for this snapshot (older versions are superseded).
    """
    txid = snapshot.txid
    xmax = snapshot.xmax
    active = snapshot.active
    for version in reversed(chain):
        created = version.created
        if created != txid and not (created < xmax and created not in active):
            continue
        deleted = version.deleted
        if deleted is not None and (
            deleted == txid or (deleted < xmax and deleted not in active)
        ):
            return None
        return version
    return None


class Table:
    """Heap of rows keyed by a stable integer rowid, plus its indexes."""

    def __init__(self, schema: TableSchema):
        """An empty table whose live rows sit in an in-memory dict.

        A file-backed :class:`~repro.minidb.database.Database` replaces
        ``rows`` with a :class:`~repro.minidb.pager.PagedHeap`, which
        speaks the same mapping protocol.
        """
        self.schema = schema
        self.rows: dict[int, list] = {}
        self.versions: dict[int, list] = {}
        self.indexes: dict[str, object] = {}
        self.next_rowid = 1
        self.on_change: Callable[[ChangeEvent], None] | None = None
        # additional subscribers (e.g. the backend's incremental stats
        # cache, §3.2) — notified after on_change for every mutation,
        # including transaction rollbacks
        self.observers: list[Callable[[ChangeEvent], None]] = []
        # MVCC wiring (set by Database): the transaction manager and a
        # hook returning the ambient transaction for direct mutations
        self.manager = None
        self.ambient_txn: Callable[[], object] | None = None
        # txid of the mutation currently maintaining indexes (writers are
        # serialized under the write lock) — lets UNIQUE enforcement tell
        # this transaction's own version churn from a concurrent writer's
        self.writing_txid: int | None = None

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    # -- ingest --------------------------------------------------------------

    def coerce(self, position: int, value):
        """Apply the column's type affinity to ``value``.

        A NaN — the only value unequal to itself — is stored as NULL in
        every affinity (SQLite's rule, and the frame's, where NaN reads as
        missing).
        """
        return _COERCERS[self.schema.columns[position].affinity](value)

    def _coerce_row(self, values, coercers) -> list:
        """``values`` checked for arity and coerced, one coercer per column."""
        if len(values) != len(coercers):
            raise IntegrityError(
                f"table {self.name!r}: {len(values)} values for "
                f"{len(coercers)} columns"
            )
        return [coerce(value) for coerce, value in zip(coercers, values)]

    def _coerce_rows(self, batch) -> list:
        """Every row of ``batch`` checked for arity and coerced, a chunk of
        rows at a time and column by column (one coercer mapped over each
        column)."""
        coercers = self._coercers()
        rows: list = []
        source = iter(batch)
        while chunk := list(islice(source, _COERCE_CHUNK)):
            if set(map(len, chunk)) != {len(coercers)}:
                for values in chunk:
                    self._coerce_row(values, coercers)  # raises on arity
            columns = [list(map(coerce, column))
                       for coerce, column in zip(coercers, zip(*chunk))]
            rows.extend(map(list, zip(*columns)))
        return rows

    def _coercers(self) -> list:
        return [_COERCERS[column.affinity] for column in self.schema.columns]

    # -- MVCC plumbing ---------------------------------------------------------

    def _write_context(self, txn):
        """``(txn, versioned)`` for one mutation.

        ``versioned`` is True whenever the mutation must leave a version
        chain behind: an explicit transaction is supplied (or ambient),
        or the manager reports live transactions / snapshots / open
        connections that could observe the pre-image.
        """
        if txn is None and self.ambient_txn is not None:
            txn = self.ambient_txn()
        if txn is not None:
            return txn, True
        manager = self.manager
        if manager is not None and (
            manager.active or manager.outstanding_snapshots
            or manager.open_connections
        ):
            return None, True
        return None, False

    def _stamp(self, txn) -> int:
        if txn is not None:
            return txn.txid
        return self.manager.instant_txid()

    def _check_conflict(self, chain: list, txn) -> None:
        """First-updater-wins: refuse to touch a row whose newest version
        belongs to another live transaction or committed after ours began."""
        head = chain[-1]
        own = txn.txid if txn is not None else None
        manager = self.manager
        for stamp in (head.created, head.deleted):
            if stamp is None or stamp == own or stamp == ANCIENT:
                continue
            if manager is not None and manager.is_active(stamp):
                raise SerializationError(
                    f"row in {self.name!r} is being modified by "
                    f"concurrent transaction {stamp}"
                )
            if txn is not None and not txn.snapshot.committed_before(stamp):
                raise SerializationError(
                    f"row in {self.name!r} was modified by transaction "
                    f"{stamp}, which committed after this one began"
                )

    # -- mutation ---------------------------------------------------------------

    @holds_write_lock
    def insert(self, values: list, rowid: int | None = None, txn=None) -> int:
        """Insert a row; returns its rowid.  ``values`` must match arity."""
        row = self._coerce_row(values, self._coercers())
        if rowid is None:
            rowid = self.next_rowid
            self.next_rowid += 1
        else:
            if rowid in self.rows:
                raise IntegrityError(f"duplicate rowid {rowid} in {self.name!r}")
            self.next_rowid = max(self.next_rowid, rowid + 1)
        txn, versioned = self._write_context(txn)
        self._put(row, rowid, txn, versioned)
        return rowid

    @holds_write_lock
    def insert_many(self, batch) -> list[int]:
        """Insert a batch of rows, all or nothing; returns their rowids.

        Every row is checked for arity and coerced — one coercer per
        column, picked by affinity — before the first is stored, and one
        write-context decision covers the batch.  Each row still gets its
        own change event.  A storage error mid-batch (a UNIQUE violation,
        say) deletes the rows already inserted before it propagates, so a
        failed batch leaves no row behind.
        """
        rows = self._coerce_rows(batch)
        txn, versioned = self._write_context(None)
        rowids: list[int] = []
        try:
            for row in rows:
                rowid = self.next_rowid
                self.next_rowid += 1
                self._put(row, rowid, txn, versioned)
                rowids.append(rowid)
        except BaseException:
            for rowid in reversed(rowids):
                self.delete(rowid, txn=txn)
            raise
        return rowids

    @holds_write_lock
    def _put(self, row: list, rowid: int, txn, versioned: bool) -> None:
        """Store one coerced row under ``rowid``, index it and announce it."""
        if versioned:
            chain = self.versions.get(rowid)
            if chain is not None:
                # re-insert over a (visibly) deleted rowid: extend the chain
                self._check_conflict(chain, txn)
            stamp = self._stamp(txn)
            version = RowVersion(row, stamp)
            self.writing_txid = stamp
            try:
                for index in self.indexes.values():
                    index.add_row(row, rowid)
            finally:
                self.writing_txid = None
            if chain is not None:
                chain.append(version)
            else:
                self.versions[rowid] = [version]
            if txn is not None:
                txn.undo.append((self, "insert", rowid, version))
            self.rows[rowid] = row
            self._notify(("insert", self.name, rowid, list(row)), txn)
            return
        # index before storing: a row some index refuses (UNIQUE) must
        # leave neither a heap row nor another index's entry behind
        added = []
        try:
            for index in self.indexes.values():
                index.add_row(row, rowid)
                added.append(index)
            self.rows[rowid] = row
        except BaseException:
            for index in added:
                index.remove_row(row, rowid)
            raise
        self._notify(("insert", self.name, rowid, list(row)), txn)

    @holds_write_lock
    def delete(self, rowid: int, txn=None) -> list:
        """Delete a row, returning its old values."""
        txn, versioned = self._write_context(txn)
        if not versioned:
            try:
                row = self.rows.pop(rowid)
            except KeyError:
                raise IntegrityError(
                    f"no row {rowid} in table {self.name!r}"
                ) from None
            for index in self.indexes.values():
                index.remove_row(row, rowid)
            self._notify(("delete", self.name, rowid, list(row)), None)
            return row
        chain = self.versions.get(rowid)
        row = self.rows.get(rowid)
        if row is None:
            if chain is not None:
                # the row was deleted under us by a concurrent transaction
                self._check_conflict(chain, txn)
            raise IntegrityError(f"no row {rowid} in table {self.name!r}") from None
        if chain is None:
            chain = [RowVersion(row, ANCIENT)]
            self.versions[rowid] = chain
        else:
            self._check_conflict(chain, txn)
        head = chain[-1]
        head.deleted = self._stamp(txn)
        del self.rows[rowid]
        # index entries stay for snapshot readers; GC reclaims them
        if txn is not None:
            txn.undo.append((self, "delete", rowid, head))
        self._notify(("delete", self.name, rowid, list(row)), txn)
        return row

    @holds_write_lock
    def update(self, rowid: int, changes: dict[int, object], txn=None) -> dict:
        """Update columns (by position) of one row; returns the old values."""
        txn, versioned = self._write_context(txn)
        if not versioned:
            try:
                row = self.rows[rowid]
            except KeyError:
                raise IntegrityError(
                    f"no row {rowid} in table {self.name!r}"
                ) from None
            old: dict[int, object] = {}
            new: dict[int, object] = {}
            for position, value in changes.items():
                coerced = self.coerce(position, value)
                old[position] = row[position]
                new[position] = coerced
            touched = [ix for ix in self.indexes.values() if ix.touches(new)]
            for index in touched:
                index.remove_row(row, rowid)
            for position, value in new.items():
                row[position] = value
            # write-through: a paged heap hands out decoded copies, so the
            # in-place edit above must be stored back (no-op for a dict,
            # whose `row` is the live list)
            self.rows[rowid] = row
            for index in touched:
                index.add_row(row, rowid)
            self._notify(("update", self.name, rowid, old, dict(new)), None)
            return old
        chain = self.versions.get(rowid)
        current = self.rows.get(rowid)
        if current is None:
            if chain is not None:
                self._check_conflict(chain, txn)
            raise IntegrityError(f"no row {rowid} in table {self.name!r}") from None
        if chain is None:
            chain = [RowVersion(current, ANCIENT)]
            self.versions[rowid] = chain
        else:
            self._check_conflict(chain, txn)
        old_version = chain[-1]
        new_values = list(current)
        old = {}
        new = {}
        for position, value in changes.items():
            coerced = self.coerce(position, value)
            old[position] = current[position]
            new[position] = coerced
            new_values[position] = coerced
        stamp = self._stamp(txn)
        new_version = RowVersion(new_values, stamp)
        # copy-on-write index maintenance: add the new key, keep the old
        # (snapshot readers still reach the row through it until GC)
        added = []
        self.writing_txid = stamp
        try:
            for index in self.indexes.values():
                if not index.touches(new):
                    continue
                if index.entry_key(current) != index.entry_key(new_values):
                    index.add_row(new_values, rowid)
                    added.append(index)
        finally:
            self.writing_txid = None
        chain.append(new_version)
        self.rows[rowid] = new_values
        if txn is not None:
            txn.undo.append(
                (self, "update", rowid, old_version, new_version, tuple(added))
            )
        self._notify(("update", self.name, rowid, old, dict(new)), txn)
        return old

    # -- rollback (physical undo, invoked by the TransactionManager) ----------

    @holds_write_lock
    @wal_exempt("rollback undo restores pre-images; aborts leave no WAL trace")
    def undo_step(self, step: tuple, db) -> None:
        """Revert one mutation (``step`` comes from ``Transaction.undo``)."""
        kind = step[1]
        rowid = step[2]
        if kind == "insert":
            version = step[3]
            chain = self.versions.get(rowid)
            if chain and chain[-1] is version:
                chain.pop()
            if not chain:
                self.versions.pop(rowid, None)
            row = self.rows.pop(rowid, None)
            if row is not None:
                for index in self.indexes.values():
                    self._unindex_version(index, version, chain or (), rowid)
            self._notify(("delete", self.name, rowid, list(version.values)), None)
        elif kind == "update":
            _table, _kind, _rowid, old_version, new_version, added = step
            chain = self.versions.get(rowid)
            if chain and chain[-1] is new_version:
                chain.pop()
            for index in added:
                self._unindex_version(index, new_version, chain or (), rowid)
            self.rows[rowid] = old_version.values
            inverse_old = {}
            inverse_new = {}
            for position, value in enumerate(new_version.values):
                before = old_version.values[position]
                if value is not before:
                    inverse_old[position] = value
                    inverse_new[position] = before
            self._notify(
                ("update", self.name, rowid, inverse_old, inverse_new), None
            )
        else:  # "delete"
            version = step[3]
            version.deleted = None
            self.rows[rowid] = version.values
            self._notify(("insert", self.name, rowid, list(version.values)), None)

    @holds_write_lock
    def _unindex_version(self, index, version: RowVersion, survivors,
                         rowid: int) -> None:
        """Drop ``version``'s index entry unless a surviving version still
        lives under the same key; restore NULL tracking for survivors."""
        key = index.entry_key(version.values)
        for other in survivors:
            if index.entry_key(other.values) == key:
                return
        index.remove_row(version.values, rowid)
        for other in survivors:
            index.reindex_null(other.values, rowid)

    # -- reads -----------------------------------------------------------------

    def get(self, rowid: int) -> list | None:
        """The row's values, or None when absent."""
        row = self.rows.get(rowid)
        return list(row) if row is not None else None

    def scan(self) -> Iterator[tuple]:
        """Yield ``(rowid, values)`` in insertion order (current state)."""
        for rowid, row in self.rows.items():
            yield rowid, row

    def scan_chunks(self, size: int) -> Iterator[tuple]:
        """Yield ``(rowids, value_rows)`` chunks of ``size`` in insertion order.

        The batched decode behind vectorized scans: a paged heap groups
        consecutive same-page records so each page is fetched from the
        buffer pool once per run (``PagedHeap.iter_chunks``); the
        in-memory dict heap slices its ordinary item iteration.  Current
        state only — MVCC snapshot reads use :meth:`snapshot_scan`.
        """
        heap = self.rows
        chunker = getattr(heap, "iter_chunks", None)
        if chunker is not None:
            yield from chunker(size)
            return
        items = iter(heap.items())
        while True:
            block = list(islice(items, size))
            if not block:
                return
            rowids, value_rows = zip(*block)  # C-speed unzip
            yield rowids, value_rows

    def snapshot_scan(self, snapshot) -> Iterator[tuple]:
        """Yield ``(rowid, values)`` as ``snapshot`` sees them.

        Safe against concurrent mutation: the rowid set is captured up
        front (one atomic copy), values resolve through version chains,
        and rows deleted before the scan but still visible to the
        snapshot are appended from their chains.
        """
        rows = self.rows
        start = tuple(rows)
        versions = self.versions
        extras = None
        if versions:
            in_start = set(start)
            extras = [rid for rid in tuple(versions) if rid not in in_start]
        vget = self.versions.get
        rget = rows.get
        for rowid in start:
            # rows before versions: writers publish the chain first, so a
            # missing chain proves `values` predates any in-flight mutation
            values = rget(rowid)
            chain = vget(rowid)
            if chain is None:
                if values is not None:
                    yield rowid, values
                continue
            version = visible_version(chain, snapshot)
            if version is not None:
                yield rowid, version.values
        if extras:
            for rowid in extras:
                chain = vget(rowid)
                if chain is None:
                    continue
                version = visible_version(chain, snapshot)
                if version is not None:
                    yield rowid, version.values

    # -- garbage collection -----------------------------------------------------

    @holds_write_lock
    @wal_exempt("GC reclaims superseded versions; current rows are untouched")
    def gc(self, horizon: int, is_active) -> int:
        """Reclaim versions no outstanding snapshot can see.

        ``horizon`` comes from ``TransactionManager.horizon()``;
        ``is_active`` tests whether a txid is still uncommitted.  Returns
        the number of rowids whose chains were fully retired.  Settled
        chains disappear entirely (``rows`` keeps the live values), and
        stale index entries of dead versions are dropped, restoring the
        exact single-session index invariants the fast path relies on.
        """
        retired = 0
        for rowid in list(self.versions):
            if self.gc_rowid(rowid, horizon, is_active):
                retired += 1
        return retired

    @holds_write_lock
    @wal_exempt("GC reclaims superseded versions; current rows are untouched")
    def gc_rowid(self, rowid: int, horizon: int, is_active) -> bool:
        """Reclaim one rowid's settled versions; True when fully retired.

        The per-rowid unit of :meth:`gc`, also invoked *targeted* by
        UNIQUE enforcement: a writer blocked by a dead version's stale
        index key collects exactly that key's chain instead of waiting
        for the next full pass.  Respects the same horizon, so versions
        an outstanding snapshot can still see are never touched.
        """
        chain = self.versions.get(rowid)
        if not chain:
            return False
        settled = None
        for i in range(len(chain) - 1, -1, -1):
            created = chain[i].created
            if created < horizon and not is_active(created):
                settled = i
                break
        if settled is None:
            return False
        dead = chain[:settled]
        survivors = chain[settled:]
        fully = False
        if len(survivors) == 1:
            head = survivors[0]
            deleted = head.deleted
            if deleted is None:
                fully = True
            elif deleted < horizon and not is_active(deleted):
                dead = chain
                survivors = []
                fully = True
        if dead:
            self._gc_unindex(rowid, dead, survivors)
        if fully:
            del self.versions[rowid]
            return True
        if dead:
            # readers may hold the old list; swap in a fresh one
            self.versions[rowid] = list(survivors)
        return False

    @holds_write_lock
    def _gc_unindex(self, rowid: int, dead, survivors) -> None:
        if not self.indexes:
            return
        for index in self.indexes.values():
            survivor_keys = {index.entry_key(v.values) for v in survivors}
            current = self.rows.get(rowid)
            if current is not None:
                survivor_keys.add(index.entry_key(current))
            removed = set()
            for version in dead:
                key = index.entry_key(version.values)
                if key in survivor_keys or key in removed:
                    continue
                removed.add(key)
                index.remove_values(index.key_values(version.values), rowid)
            if removed:
                for version in survivors:
                    index.reindex_null(version.values, rowid)
                if current is not None:
                    index.reindex_null(current, rowid)

    # -- change notification ------------------------------------------------------

    def _notify(self, event: ChangeEvent, txn=None) -> None:
        if txn is not None:
            txn.record(event)
        elif self.on_change is not None:
            self.on_change(event)
        for observer in self.observers:
            observer(event)

    # -- schema changes --------------------------------------------------------

    @holds_write_lock
    def add_column(self, coldef: ColumnDef) -> None:
        """ALTER TABLE ADD COLUMN — existing rows get NULL."""
        self.schema.add_column(coldef)
        rows = self.rows
        for rowid in list(rows.keys()):
            row = rows[rowid]
            row.append(None)
            # write-through for paged heaps (see Table.update); for a dict
            # this re-binds the same list object
            rows[rowid] = row
        # chain versions hold distinct value lists (the head shares the live
        # list already widened above); pad any that are still short
        width = len(self.schema.columns)
        for chain in self.versions.values():
            for version in chain:
                if len(version.values) < width:
                    version.values.append(None)

    # -- index management --------------------------------------------------------

    @holds_write_lock
    def create_index(self, name: str, columns, unique: bool = False) -> None:
        """Build an index over one or more columns, bottom-up.

        Column names are validated against the schema *before* any key is
        built, so a typo surfaces as a :class:`CatalogError` naming the
        column rather than an error deep inside the build.

        One pass over the heap — page by page for a paged heap
        (:meth:`scan_chunks`) — computes every live row's entry key;
        version-chain rows still visible to some snapshot contribute the
        keys of the versions that differ from the live row, so snapshot
        probes keep finding them.  The index then builds itself once from
        the rowids grouped by key (its ``build``): sorted keys packed into
        B+tree leaves bottom-up.  This is the only way an index is
        populated from existing rows — ``CREATE INDEX`` and recovery
        alike.
        """
        if name in self.indexes:
            raise CatalogError(f"index {name!r} already exists")
        if isinstance(columns, str):
            columns = (columns,)
        columns = tuple(columns)
        if not columns:
            raise CatalogError(f"index {name!r} must cover at least one column")
        seen: set[str] = set()
        for column in columns:
            if column in seen:
                raise CatalogError(
                    f"index {name!r} names column {column!r} twice"
                )
            seen.add(column)
        positions = tuple(self.schema.position(column) for column in columns)
        index = BTreeIndex(name, columns, positions, unique=unique)
        index.owner = self
        index.build(self._live_entries(), self._chained_entries())
        self.indexes[name] = index

    def _live_entries(self) -> Iterator[tuple]:
        """``(rowid, values)`` for every current row, decoded in chunks."""
        for rowids, value_rows in self.scan_chunks(_BUILD_CHUNK):
            yield from zip(rowids, value_rows)

    def _chained_entries(self) -> Iterator[tuple]:
        """``(rowid, values)`` for the chain versions that differ from the
        current row.  Equality, not identity: a paged heap decodes a fresh
        list per read, so the chain head is never the stored row object —
        but equal values mean equal index keys, already in the live pass."""
        rows = self.rows
        for rowid, chain in self.versions.items():
            current = rows.get(rowid)
            for version in chain:
                if version.values != current:
                    yield rowid, version.values

    @holds_write_lock
    def drop_index(self, name: str) -> None:
        """Remove an index."""
        try:
            del self.indexes[name]
        except KeyError:
            raise CatalogError(f"no index {name!r} on table {self.name!r}") from None

    def indexes_on(self, column: str) -> list:
        """All single-column indexes whose key is exactly ``column``."""
        return [ix for ix in self.indexes.values() if ix.columns == (column,)]


# -- affinity coercers (one per affinity; see Table.coerce) -------------------


def _coerce_text(value):
    if type(value) is str:  # the common case first
        return value
    value = _plain(value)
    if value is None or isinstance(value, str):
        return value
    return _number_to_text(value)


# numeric affinities: try to make a number, keep text when impossible


def _coerce_integer(value):
    if type(value) is int:  # the common case first
        return value
    value = _plain(value)
    if isinstance(value, str):
        number = _parse_strict(value)
        if number is None:
            return value  # the type-mismatch case: text in a numeric column
        value = number
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value  # None, an int, or a fraction or ±inf kept as a float


def _coerce_real(value):
    if type(value) is float:  # the common case first (NaN is NULL)
        return None if value != value else value
    value = _plain(value)
    if isinstance(value, str):
        number = _parse_strict(value)
        if number is None:
            return value  # the type-mismatch case: text in a numeric column
        # widen like the direct-number path so coercion is idempotent:
        # coerce(coerce("7")) must equal coerce("7") for replay fidelity
        return _widen(number)
    if isinstance(value, int):
        return _widen(value)
    return value


def _widen(number):
    """``number`` as a float; an integer beyond float range stays exact."""
    try:
        return float(number)
    except OverflowError:
        return number


def _plain(value):
    """``value`` as a stored cell: ``None``, ``int``, ``float`` or ``str``
    — the no-affinity coercer, and the step the other three share.

    NaN is NULL and a bool is stored as its int; anything outside the
    value domain (:func:`scalar`) is refused."""
    if type(value) not in CELL_TYPES:
        value = scalar(value)
    if isinstance(value, bool):
        return int(value)
    return None if value != value else value


#: the types a cell (or a bound parameter) may have
CELL_TYPES = frozenset({type(None), bool, int, float, str})
# numpy dtype kinds holding a bool, an int, a float or a str
_NUMPY_KINDS = frozenset("biufU")


def scalar(value):
    """``value`` checked against minidb's value domain — ``None``, a bool,
    an int, a float or a str — with a numpy scalar converted to its Python
    value.  Any other value (a list, a dict, bytes, an array) raises
    :class:`~repro.errors.IntegrityError`."""
    if type(value) in CELL_TYPES:
        return value
    if getattr(getattr(value, "dtype", None), "kind", None) in _NUMPY_KINDS \
            and value.shape == ():
        return value.item()
    if isinstance(value, (int, float, str)):  # a subclass, e.g. an IntEnum
        return value
    raise IntegrityError(
        f"a value of type {type(value).__name__!r} is not a cell: cells are "
        f"None, bool, int, float or str")


_COERCERS = {NONE: _plain, TEXT: _coerce_text,
             INTEGER: _coerce_integer, REAL: _coerce_real}


def _number_to_text(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return repr(float(value))
    return str(value)


def _parse_strict(text: str):
    text = text.strip()
    if not text:
        return None
    try:
        if text.lstrip("+-").isdigit():
            return int(text)
        return float(text)
    except ValueError:
        return None
