"""Hash and B+tree index wrappers used by minidb tables.

These are the structures behind the paper's claim that Buckaroo "creates
Postgres indexes for all the attribute combinations in the charts for
efficient data lookups" (§2): group membership queries
(``WHERE country = ?``) hit a hash or B+tree index instead of scanning, and
two-attribute chart lookups (``WHERE cat = ? ORDER BY val LIMIT k``) walk a
single *composite* B+tree.

Both index kinds cover one **or more** columns:

* :class:`HashIndex` — equality only.  Keys are tuples of normalized
  values; rows with a NULL in any indexed column are skipped (SQL equality
  never matches NULL).
* :class:`BTreeIndex` — ordered.  Keys are NULL-aware sort-key tuples, so
  *every* row is indexed (NULLs sort first, matching ``ORDER BY``), and the
  rowids whose key contains a NULL are additionally tracked in
  :attr:`BTreeIndex.null_rowids`.  That full coverage is what lets the
  planner answer ``ORDER BY`` straight from a leaf walk even on nullable
  columns, forward or backward (DESC).
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from typing import Iterator, Sequence

from repro.errors import IntegrityError, SerializationError
from repro.minidb.btree import BTree
from repro.minidb.invariants import holds_write_lock
from repro.minidb.expressions import sort_key

#: sorts above every real key component ((rank, primitive) with rank <= 2),
#: used to build the exclusive upper bound of a composite prefix walk
_ABOVE_ANY_COMPONENT = (3,)

#: groups a locked :meth:`BTreeIndex.group_walk` pulls per lock hold
_WALK_BATCH = 64


def normalize_key(value):
    """Normalize a column value for index equality (1 == 1.0, bool as int).

    An integer beyond float range keeps its exact value as its key."""
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            return value
    return value


def _as_columns(columns) -> tuple:
    """Accept a single column name or a sequence of them."""
    if isinstance(columns, str):
        return (columns,)
    return tuple(columns)


def _as_positions(positions) -> tuple:
    if isinstance(positions, int):
        return (positions,)
    return tuple(positions)


class _IndexBase:
    """Shared shape of both index kinds: columns, positions, row plumbing."""

    def __init__(self, name: str, columns, positions, unique: bool = False):
        self.name = name
        self.columns = _as_columns(columns)
        self.positions = _as_positions(positions)
        if len(self.columns) != len(self.positions):
            raise ValueError(
                f"index {name!r}: {len(self.columns)} columns for "
                f"{len(self.positions)} positions"
            )
        self.unique = unique
        self._pick = itemgetter(*self.positions)
        self._single = len(self.positions) == 1
        # back-reference to the owning Table (set by Table.create_index);
        # lets UNIQUE enforcement distinguish live rows from dead MVCC
        # versions whose stale entries await garbage collection
        self.owner = None

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    @property
    def column(self) -> str:
        """First (or only) indexed column — legacy single-column accessor."""
        return self.columns[0]

    @property
    def position(self) -> int:
        """First (or only) indexed position — legacy single-column accessor."""
        return self.positions[0]

    def touches(self, changed_positions) -> bool:
        """True when an update to ``changed_positions`` affects this key."""
        return any(p in changed_positions for p in self.positions)

    def key_values(self, row: Sequence) -> tuple:
        """This index's key components extracted from a stored row."""
        values = self._pick(row)
        return (values,) if self._single else values

    def entry_key(self, row: Sequence):
        """The normalized key this index files ``row`` under.

        Used by MVCC readers to re-check that a row *version* still
        matches the index entry it was reached through (stale entries of
        superseded versions stay until GC), and by GC itself to decide
        which entries died with a version.
        """
        return self._key(self.key_values(row))

    def probe_key(self, values: tuple):
        """The normalized key a probe for ``values`` targets (the expected
        entry key for an MVCC visible-version re-check)."""
        return self._key(values)

    def null_match(self, row: Sequence) -> bool:
        """True when ``row`` carries a NULL in any indexed column."""
        return any(row[p] is None for p in self.positions)

    @holds_write_lock
    def reindex_null(self, row: Sequence, rowid: int) -> None:
        """Re-assert NULL tracking for ``row`` (no-op for hash indexes).

        ``remove_values`` clears a rowid from the B+tree's NULL set even
        when another live version of the row still has a NULL key; undo
        and GC call this for each survivor to restore it.
        """

    def _values_of(self, value) -> tuple:
        """Normalize the legacy single-value API to a component tuple."""
        if self.n_columns == 1:
            return (value,)
        values = tuple(value)
        if len(values) != self.n_columns:
            raise ValueError(
                f"index {self.name!r} covers {self.n_columns} columns, "
                f"got {len(values)} values"
            )
        return values

    @holds_write_lock
    def _unique_conflict(self, existing, rowid: int, key):
        """Classify a UNIQUE key collision against MVCC liveness.

        ``existing`` are the rowids already filed under ``key``.  Returns
        ``(verdict, stale)`` where ``verdict`` is None (no violation),
        ``"dup"`` (another *current* row really holds the key), or
        ``"race"`` (the key is held or freed by another live transaction
        whose outcome is unknown — retryable), and ``stale`` lists the
        rowids whose entry under ``key`` belongs to a dead version
        awaiting GC — candidates for the targeted collection
        :meth:`_check_unique` runs.  Without an ``owner`` back-reference
        there is no liveness information and any other rowid is a
        duplicate (the strict pre-MVCC rule).
        """
        owner = self.owner
        if owner is None:
            dup = any(r != rowid for r in existing)
            return ("dup" if dup else None), []
        manager = owner.manager
        verdict = None
        stale = []
        own = owner.writing_txid
        for other in existing:
            if other == rowid:
                continue
            chain = owner.versions.get(other) if manager is not None else None
            if not chain:
                row = owner.rows.get(other)
                if row is not None and self.entry_key(row) == key:
                    return "dup", stale
                continue
            head = chain[-1]
            created, deleted = head.created, head.deleted
            if (created != own and manager.is_active(created)) or (
                deleted is not None and deleted != own
                and manager.is_active(deleted)
            ):
                # in flux by another live transaction: its abort could
                # resurface (or keep) the key — first-updater-wins
                verdict = "race"
                continue
            if deleted is not None:
                # deleted by us, or committed-deleted: a dead entry that
                # only GC will clear — remember it for targeted collection
                if deleted != own:
                    stale.append(other)
                continue
            if self.entry_key(head.values) == key:
                return "dup", stale
            # the head no longer carries this key: the entry under `key`
            # belongs to a superseded version of `other`
            stale.append(other)
        return verdict, stale

    @holds_write_lock
    def _check_unique(self, existing, rowid: int, values: tuple, key) -> None:
        verdict, stale = self._unique_conflict(existing, rowid, key)
        if stale:
            # Targeted GC: dead versions' stale entries under this key
            # would otherwise linger (and block) until a full pass whose
            # trigger — the last outstanding snapshot releasing — may be
            # long in coming.  We already hold the write lock; collect
            # exactly these rowids now.  gc_rowid respects the manager's
            # horizon, so versions an outstanding snapshot still sees
            # survive untouched.
            owner = self.owner
            manager = owner.manager if owner is not None else None
            if manager is not None:
                horizon = manager.horizon()
                for other in stale:
                    owner.gc_rowid(other, horizon, manager.is_active)
        if verdict == "dup":
            raise IntegrityError(
                f"UNIQUE index {self.name}: duplicate value "
                f"{values[0] if self.n_columns == 1 else values!r}"
            )
        if verdict == "race":
            raise SerializationError(
                f"UNIQUE index {self.name}: value "
                f"{values[0] if self.n_columns == 1 else values!r} is held "
                f"by a concurrent transaction"
            )

    # -- bulk build (CREATE INDEX) -------------------------------------------

    @holds_write_lock
    def build(self, live, chained=()) -> None:
        """Fill this empty index in one pass.

        ``live`` yields ``(rowid, row)`` for the table's current rows and
        ``chained`` ``(rowid, values)`` for the version-chain rows that
        differ from them.  Each entry key is computed once, rowids are
        grouped by key, and the structure is built once from the groups
        (:meth:`_install`).  UNIQUE is enforced on live rows with the same
        check — and error — as :meth:`insert_values`; chain versions are
        dead or superseded state whose keys may collide with a live row
        without constituting a violation, so they are never checked.
        """
        groups: dict = {}
        nulls: set = set()
        self._group(live, groups, nulls, self.unique)
        self._group(chained, groups, nulls, False)
        self._install(groups, nulls)

    @holds_write_lock
    def _group(self, entries, groups: dict, nulls: set,
               check_unique: bool) -> None:
        values_of = self.key_values
        key_of = self._key
        for rowid, row in entries:
            values = values_of(row)
            if None in values:
                if not self.indexes_nulls:
                    continue
                nulls.add(rowid)
                groups.setdefault(key_of(values), set()).add(rowid)
                continue  # NULLs never collide under UNIQUE
            key = key_of(values)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = {rowid}
                continue
            if check_unique:
                self._check_unique(bucket, rowid, values, key)
            bucket.add(rowid)

    # -- row-level maintenance (called by Table on every mutation) ----------

    @holds_write_lock
    def add_row(self, row: Sequence, rowid: int,
                check_unique: bool = True) -> None:
        self.insert_values(self.key_values(row), rowid,
                           check_unique=check_unique)

    @holds_write_lock
    def remove_row(self, row: Sequence, rowid: int) -> None:
        self.remove_values(self.key_values(row), rowid)

    # -- legacy single-value API (and tuple passthrough for composites) -----

    @holds_write_lock
    def insert(self, value, rowid: int) -> None:
        self.insert_values(self._values_of(value), rowid)

    @holds_write_lock
    def remove(self, value, rowid: int) -> None:
        self.remove_values(self._values_of(value), rowid)

    def lookup(self, value) -> set:
        return self.lookup_values(self._values_of(value))


class HashIndex(_IndexBase):
    """Equality-only index: value tuple -> set of rowids.  NULLs skipped."""

    kind = "hash"
    indexes_nulls = False

    def __init__(self, name: str, columns, positions, unique: bool = False):
        super().__init__(name, columns, positions, unique)
        self._buckets: dict = {}

    @holds_write_lock
    def _install(self, groups: dict, nulls: set) -> None:
        self._buckets = groups

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    @property
    def n_keys(self) -> int:
        """Number of distinct indexed values."""
        return len(self._buckets)

    @holds_write_lock
    def insert_values(self, values: tuple, rowid: int,
                      check_unique: bool = True) -> None:
        """Index ``rowid`` under the component tuple (any NULL is skipped).

        ``check_unique=False`` skips UNIQUE enforcement — used when
        backfilling dead version-chain entries, whose keys may collide
        with live rows without constituting a violation.
        """
        if any(v is None for v in values):
            return
        key = self._key(values)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = {rowid}
            return
        if self.unique and check_unique and bucket and bucket != {rowid}:
            # re-indexing the same rowid under its own key is never a
            # violation (MVCC updates may file a row twice transiently);
            # other rowids' entries count only if their version is live
            self._check_unique(bucket, rowid, values, key)
        # re-fetch: the targeted GC inside _check_unique may have emptied
        # and dropped the bucket we were holding
        self._buckets.setdefault(key, set()).add(rowid)

    @holds_write_lock
    def remove_values(self, values: tuple, rowid: int) -> None:
        """Drop the pair if present."""
        if any(v is None for v in values):
            return
        key = self._key(values)
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        bucket.discard(rowid)
        if not bucket:
            del self._buckets[key]

    def lookup_values(self, values: tuple) -> set:
        """Rowids whose columns equal ``values`` (empty when any is NULL)."""
        if any(v is None for v in values):
            return set()
        return set(self._buckets.get(self._key(values), ()))

    def keys(self) -> list:
        """Distinct indexed values (normalized; scalars for 1-column)."""
        if self.n_columns == 1:
            return [key[0] for key in self._buckets]
        return list(self._buckets)

    def _key(self, values: tuple) -> tuple:
        if self._single:
            return (normalize_key(values[0]),)
        return tuple(map(normalize_key, values))


class BTreeIndex(_IndexBase):
    """Ordered index: equality, ranges, and ordered walks in both directions.

    Every row is indexed.  Single-column keys are ``sort_key(value)``
    (preserving the ``(rank, primitive)`` shape older numeric helpers rely
    on); composite keys are tuples of those.  ``sort_key(None)`` ranks below
    every number and string, so NULLs occupy the front of the key space —
    exactly where ``ORDER BY`` puts them — and :attr:`null_rowids` records
    which rows carry a NULL in any indexed column.
    """

    kind = "btree"
    indexes_nulls = True

    def __init__(self, name: str, columns, positions, unique: bool = False,
                 order: int = 64):
        super().__init__(name, columns, positions, unique)
        self._tree = BTree(order=order)
        self.null_rowids: set[int] = set()

    @holds_write_lock
    def _install(self, groups: dict, nulls: set) -> None:
        self._tree.load_sorted(sorted(groups.items(), key=itemgetter(0)))
        self.null_rowids = nulls

    def __len__(self) -> int:
        return len(self._tree)

    @property
    def n_keys(self) -> int:
        """Number of distinct keys currently stored."""
        return self._tree.n_keys

    def covers(self, n_rows: int) -> bool:
        """True when every one of ``n_rows`` table rows is in the tree —
        the precondition for serving ``ORDER BY`` from a leaf walk."""
        return len(self._tree) == n_rows

    # -- mutation ------------------------------------------------------------

    @holds_write_lock
    def insert_values(self, values: tuple, rowid: int,
                      check_unique: bool = True) -> None:
        """Index ``rowid`` under the component tuple (NULLs included).

        ``check_unique=False`` skips UNIQUE enforcement — used when
        backfilling dead version-chain entries, whose keys may collide
        with live rows without constituting a violation.
        """
        has_null = any(v is None for v in values)
        key = self._key(values)
        if self.unique and check_unique and not has_null:
            existing = self._tree.search(key)
            if existing and existing != {rowid}:
                # SQL semantics: NULLs never collide under UNIQUE; a rowid
                # re-filed under its own key (MVCC re-index) is fine, and
                # dead versions' stale entries do not count
                self._check_unique(existing, rowid, values, key)
        self._tree.insert(key, rowid)
        if has_null:
            self.null_rowids.add(rowid)

    @holds_write_lock
    def remove_values(self, values: tuple, rowid: int) -> None:
        """Drop the pair if present."""
        self._tree.remove(self._key(values), rowid)
        self.null_rowids.discard(rowid)

    @holds_write_lock
    def reindex_null(self, row: Sequence, rowid: int) -> None:
        if any(row[p] is None for p in self.positions):
            self.null_rowids.add(rowid)

    # -- point lookups ---------------------------------------------------------

    def lookup_values(self, values: tuple) -> set:
        """Rowids whose columns equal ``values`` (empty when any is NULL)."""
        if any(v is None for v in values):
            return set()
        return self._tree.search(self._key(values))

    def lookup_null(self) -> set:
        """Rowids whose indexed key contains a NULL (``IS NULL`` scans)."""
        return set(self.null_rowids)

    # -- bounded walks ---------------------------------------------------------
    #
    # Every ordered read works out its tree-key bounds with one of the
    # ``*_bounds`` methods and walks them with :meth:`group_walk`, whether
    # it reads live rows or resolves an MVCC snapshot.

    def order_bounds(self) -> tuple:
        """Tree-key bounds of a full ordered walk.  NULL keys come first
        ascending, last descending — the executor's sort-key semantics."""
        return (None, None, True, True)

    def merge_bounds(self) -> tuple:
        """Tree-key bounds of the ascending walk a merge join consumes:
        every key except the NULL group (NULL join keys never match)."""
        self._require_single("merge_bounds")
        return (sort_key(None), None, False, True)

    def range_bounds(self, low=None, high=None, include_low: bool = True,
                     include_high: bool = True) -> tuple:
        """Tree-key bounds of the keys between ``low`` and ``high``.

        NULLs never satisfy a comparison, so an unbounded-low walk starts
        just past the NULL key instead of sweeping it up; numbers sort
        before text, so an unbounded-high walk reaches text keys.
        """
        self._require_single("range_bounds")
        if low is None:
            low_key, include_low = sort_key(None), False
        else:
            low_key = sort_key(low)
        high_key = sort_key(high) if high is not None else None
        return (low_key, high_key, include_low, include_high)

    def prefix_bounds(self, values: tuple, low=None, high=None,
                      include_low: bool = True,
                      include_high: bool = True) -> tuple | None:
        """Tree-key bounds of the keys whose first ``len(values)`` columns
        equal ``values`` — walked in order of the remaining columns — or
        None when the walk can match nothing (a NULL component: SQL
        equality).

        ``low``/``high`` additionally bound the *next* index column after
        the equality prefix, so ``WHERE cat = ? AND val > ? ORDER BY val``
        on a ``(cat, val)`` index seeds the leaf walk at the range bound
        instead of filtering a residual.  A bounded walk never reaches NULL
        suffix values (SQL comparisons never match NULL); an unbounded one
        keeps them (ORDER BY includes NULLs).
        """
        if any(v is None for v in values):
            return None
        if len(values) == self.n_columns and low is None and high is None:
            key = self._key(values)
            return (key, key, True, True)
        prefix = tuple(sort_key(v) for v in values)
        # synthesized bounds compare against real keys without ever equaling
        # one, so the walk always runs [low_key, high_key)
        if low is not None:
            if include_low:
                low_key = prefix + (sort_key(low),)
            else:  # skip every key whose suffix component equals the bound
                low_key = prefix + (sort_key(low), _ABOVE_ANY_COMPONENT)
        elif high is not None:
            # range conjuncts exclude NULL suffix values; start past them
            low_key = prefix + (sort_key(None), _ABOVE_ANY_COMPONENT)
        else:
            low_key = prefix
        if high is not None:
            if include_high:
                high_key = prefix + (sort_key(high), _ABOVE_ANY_COMPONENT)
            else:
                high_key = prefix + (sort_key(high),)
        else:
            high_key = prefix + (_ABOVE_ANY_COMPONENT,)
        return (low_key, high_key, True, False)

    def group_walk(self, bounds: tuple, reverse: bool = False,
                   lock=None) -> Iterator[tuple]:
        """``(tree_key, rowids)`` groups between ``bounds``, in key order
        (descending with ``reverse``).

        With ``lock=None`` this is one straight leaf walk: the caller
        guarantees no concurrent mutation (the single-session fast path).
        With ``lock`` (the database's write lock), up to
        :data:`_WALK_BATCH` groups are pulled per acquisition, then the
        walk *re-seeks* past the last key with a fresh root descent — a
        writer splitting leaves between batches cannot tear the iteration,
        and the lock is never held while the consumer processes rows.
        Snapshot readers pair this with a per-version key re-check, so
        duplicate or stale entries met across batches resolve to
        exactly-once results.
        """
        scan = self._tree.range_scan_desc if reverse else self._tree.range_scan
        if lock is None:
            return scan(*bounds)
        return self._batched_walk(scan, bounds, reverse, lock)

    @staticmethod
    def _batched_walk(scan, bounds: tuple, reverse: bool,
                      lock) -> Iterator[tuple]:
        low_key, high_key, include_low, include_high = bounds
        while True:
            with lock:
                got = list(islice(
                    scan(low_key, high_key, include_low, include_high),
                    _WALK_BATCH,
                ))
            yield from got
            if len(got) < _WALK_BATCH:
                return
            if reverse:
                high_key, include_high = got[-1][0], False
            else:
                low_key, include_low = got[-1][0], False

    # -- numeric helpers (the outlier detector's tail scans) -------------------

    def numeric_range(self, low=None, high=None, include_low: bool = True,
                      include_high: bool = True) -> Iterator[int]:
        """Rowids with numeric values in the given range, never crossing
        into text keys.

        Text sorts above every number, so an unbounded-high walk would
        otherwise sweep up contaminating text values.  The outlier detector
        uses this for its two tail scans.
        """
        self._require_single("numeric_range")
        low_key = sort_key(low) if low is not None else (1, float("-inf"))
        high_key = sort_key(high) if high is not None else (1, float("inf"))
        for _, rowids in self._tree.range_scan(low_key, high_key, include_low, include_high):
            yield from rowids

    def numeric_min(self):
        """The smallest numeric key, or None."""
        self._require_single("numeric_min")
        for key, _ in self._tree.range_scan((1, float("-inf")), (1, float("inf"))):
            return key[1]
        return None

    def numeric_max(self):
        """The largest numeric key, or None (O(log n) reverse walk)."""
        self._require_single("numeric_max")
        for key, _ in self._tree.range_scan_desc((1, float("-inf")), (1, float("inf"))):
            return key[1]
        return None

    # -- internals -------------------------------------------------------------

    def _key(self, values: tuple):
        if self._single:
            return sort_key(values[0])
        return tuple(map(sort_key, values))

    def _require_single(self, what: str) -> None:
        if self.n_columns != 1:
            raise ValueError(
                f"{what}() applies to single-column indexes; "
                f"{self.name!r} covers {self.columns}"
            )
