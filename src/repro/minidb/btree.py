"""B+tree indexes: the one index structure minidb tables keep.

These are the structures behind the paper's claim that Buckaroo "creates
Postgres indexes for all the attribute combinations in the charts for
efficient data lookups" (§2): group membership queries
(``WHERE country = ?``), viewport ranges and ranked fetches all walk one
ordered index per chart attribute, and two-attribute chart lookups
(``WHERE cat = ? ORDER BY val LIMIT k``) walk a single *composite* tree.

:class:`BTree` maps sort keys to sets of rowids:

* keys are the normalized tuples produced by
  :func:`repro.minidb.expressions.sort_key` — or, for composite indexes,
  tuples *of* those tuples — so heterogeneous column values (numbers mixed
  with text, NULLs included) order deterministically;
* each key maps to a *set* of rowids (columns are not unique in general);
* leaves form a doubly linked list, so range scans run in both key orders
  (:meth:`BTree.range_scan` forward, :meth:`BTree.range_scan_desc`
  backward — the walk behind ``ORDER BY col DESC LIMIT k``);
* deleting the last rowid of a key removes the key from its leaf without
  rebalancing (lazy deletion).  Internal separators may then reference
  absent keys, which never affects search correctness — separators only
  guide descent.  :meth:`BTree.check_invariants` verifies the structural
  invariants that *do* matter and is exercised by the property tests.

:class:`BTreeIndex` wraps a tree for a table: it covers one **or more**
columns, indexes *every* row (NULLs sort first, matching ``ORDER BY``),
tracks the rowids whose key contains a NULL in
:attr:`BTreeIndex.null_rowids`, and enforces UNIQUE against MVCC
liveness.  That full coverage is what lets the planner answer equality,
``IS NULL``, ranges and ``ORDER BY`` from the same index, forward or
backward (DESC).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice
from operator import itemgetter
from typing import Iterator, Sequence

from repro.errors import IntegrityError, SerializationError
from repro.minidb.expressions import sort_key
from repro.minidb.invariants import holds_write_lock

#: sorts above every real key component ((rank, primitive) with rank <= 2),
#: used to build the exclusive upper bound of a composite prefix walk
_ABOVE_ANY_COMPONENT = (3,)

#: groups a locked :meth:`BTreeIndex.group_walk` pulls per lock hold
_WALK_BATCH = 64


class _Leaf:
    __slots__ = ("keys", "values", "next", "prev")

    def __init__(self) -> None:
        self.keys: list = []
        self.values: list[set] = []
        self.next: _Leaf | None = None
        self.prev: _Leaf | None = None


class _Internal:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        self.keys: list = []
        self.children: list = []


class BTree:
    """Order-``order`` B+tree with duplicate support via rowid sets."""

    def __init__(self, order: int = 64):
        if order < 4:
            raise ValueError("order must be at least 4")
        self.order = order
        self.root: _Leaf | _Internal = _Leaf()
        self._n_entries = 0  # number of (key, rowid) pairs
        self._n_keys = 0  # number of distinct keys (maintained incrementally)

    def __len__(self) -> int:
        """Number of (key, rowid) pairs stored."""
        return self._n_entries

    @property
    def n_keys(self) -> int:
        """Number of distinct keys currently stored (O(1); the planner's
        statistics layer reads this as an exact distinct-value count)."""
        return self._n_keys

    # -- mutation ------------------------------------------------------------

    @holds_write_lock
    def insert(self, key, rowid: int) -> None:
        """Add ``rowid`` under ``key`` (idempotent per pair)."""
        result = self._insert(self.root, key, rowid)
        if result is not None:
            separator, new_node = result
            new_root = _Internal()
            new_root.keys = [separator]
            new_root.children = [self.root, new_node]
            self.root = new_root

    @holds_write_lock
    def load_sorted(self, items: list) -> None:
        """Fill an empty tree bottom-up from ``(key, rowids)`` pairs in
        strictly ascending key order (each ``rowids`` a non-empty set the
        tree takes ownership of).

        Leaves are packed ``order`` keys full and chained; each internal
        level above groups up to ``order + 1`` children, with the first
        key under every child but the first as its separator.  Later
        inserts split the packed nodes as usual.
        """
        if self._n_entries:
            raise ValueError("load_sorted() needs an empty tree")
        if not items:
            return
        order = self.order
        level = []  # (first key below, node) per node of the level
        prev = None
        for start in range(0, len(items), order):
            leaf = _Leaf()
            chunk = items[start:start + order]
            leaf.keys = [key for key, _rowids in chunk]
            leaf.values = [rowids for _key, rowids in chunk]
            leaf.prev = prev
            if prev is not None:
                prev.next = leaf
            prev = leaf
            level.append((leaf.keys[0], leaf))
        while len(level) > 1:
            # spread the children evenly so no internal node is left
            # with a lone child
            groups = -(-len(level) // (order + 1))
            size, extra = divmod(len(level), groups)
            parents = []
            start = 0
            for g in range(groups):
                end = start + size + (1 if g < extra else 0)
                node = _Internal()
                children = level[start:end]
                node.keys = [first for first, _child in children[1:]]
                node.children = [child for _first, child in children]
                parents.append((children[0][0], node))
                start = end
            level = parents
        self.root = level[0][1]
        self._n_keys = len(items)
        self._n_entries = sum(len(rowids) for _key, rowids in items)

    @holds_write_lock
    def remove(self, key, rowid: int) -> bool:
        """Remove the pair; returns False when it was not present."""
        node = self._find_leaf(key)
        index = bisect_left(node.keys, key)
        if index >= len(node.keys) or node.keys[index] != key:
            return False
        bucket = node.values[index]
        if rowid not in bucket:
            return False
        bucket.discard(rowid)
        self._n_entries -= 1
        if not bucket:
            del node.keys[index]
            del node.values[index]
            self._n_keys -= 1
        return True

    # -- queries -------------------------------------------------------------

    def search(self, key) -> set:
        """Rowids stored under exactly ``key`` (empty set when absent)."""
        node = self._find_leaf(key)
        index = bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            return set(node.values[index])
        return set()

    def range_scan(self, low=None, high=None, include_low: bool = True,
                   include_high: bool = True) -> Iterator[tuple]:
        """Yield ``(key, rowids)`` for keys in the given (half-)open range.

        ``None`` bounds mean unbounded on that side.
        """
        if low is None:
            node: _Leaf | None = self._leftmost_leaf()
            index = 0
        else:
            node = self._find_leaf(low)
            index = bisect_left(node.keys, low) if include_low else bisect_right(node.keys, low)
        while node is not None:
            while index < len(node.keys):
                key = node.keys[index]
                if high is not None:
                    if include_high:
                        if key > high:
                            return
                    elif key >= high:
                        return
                yield key, set(node.values[index])
                index += 1
            node = node.next
            index = 0

    def range_scan_desc(self, low=None, high=None, include_low: bool = True,
                        include_high: bool = True) -> Iterator[tuple]:
        """Like :meth:`range_scan` but yields keys in *descending* order.

        Walks the leaf chain backward via the ``prev`` pointers, so
        ``ORDER BY col DESC LIMIT k`` touches only the last ``k`` keys.
        """
        if high is None:
            node: _Leaf | None = self._rightmost_leaf()
            index = len(node.keys) - 1
        else:
            node = self._find_leaf(high)
            if include_high:
                index = bisect_right(node.keys, high) - 1
            else:
                index = bisect_left(node.keys, high) - 1
        while node is not None:
            while index >= 0:
                key = node.keys[index]
                if low is not None:
                    if include_low:
                        if key < low:
                            return
                    elif key <= low:
                        return
                yield key, set(node.values[index])
                index -= 1
            node = node.prev
            if node is not None:
                index = len(node.keys) - 1

    def iter_items(self) -> Iterator[tuple]:
        """All ``(key, rowids)`` pairs in key order."""
        return self.range_scan()

    def min_key(self):
        """Smallest key, or None when empty."""
        for key, _ in self.iter_items():
            return key
        return None

    def max_key(self):
        """Largest key, or None when empty (O(log n) reverse walk)."""
        for key, _ in self.range_scan_desc():
            return key
        return None

    # -- invariants (for tests) ----------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError when a structural invariant is violated.

        Checks: leaf keys globally sorted & distinct; internal node fanout
        consistent; leaf chain covers exactly the reachable leaves; entry
        count matches.
        """
        leaves_via_tree: list[_Leaf] = []
        self._collect_leaves(self.root, leaves_via_tree)
        leaves_via_chain = []
        node = self._leftmost_leaf()
        while node is not None:
            leaves_via_chain.append(node)
            node = node.next
        assert leaves_via_tree == leaves_via_chain, "leaf chain diverges from tree"
        backwards = []
        node = self._rightmost_leaf()
        while node is not None:
            backwards.append(node)
            node = node.prev
        assert backwards[::-1] == leaves_via_chain, "prev chain diverges from next chain"
        all_keys = [key for leaf in leaves_via_tree for key in leaf.keys]
        assert all_keys == sorted(all_keys), "leaf keys not sorted"
        assert len(all_keys) == len(set(map(repr, all_keys))), "duplicate keys in leaves"
        assert len(all_keys) == self._n_keys, "distinct-key counter drifted"
        total = sum(
            len(bucket) for leaf in leaves_via_tree for bucket in leaf.values
        )
        assert total == self._n_entries, "entry count mismatch"
        self._check_node(self.root)

    def _check_node(self, node) -> None:
        if isinstance(node, _Leaf):
            assert len(node.keys) == len(node.values)
            for bucket in node.values:
                assert bucket, "empty bucket left behind"
            return
        assert len(node.children) == len(node.keys) + 1, "bad internal fanout"
        assert node.keys == sorted(node.keys), "internal keys not sorted"
        for child in node.children:
            self._check_node(child)

    # -- internals -------------------------------------------------------------

    def _find_leaf(self, key) -> _Leaf:
        node = self.root
        while isinstance(node, _Internal):
            index = bisect_right(node.keys, key)
            node = node.children[index]
        return node

    def _leftmost_leaf(self) -> _Leaf:
        node = self.root
        while isinstance(node, _Internal):
            node = node.children[0]
        return node

    def _rightmost_leaf(self) -> _Leaf:
        node = self.root
        while isinstance(node, _Internal):
            node = node.children[-1]
        return node

    def _collect_leaves(self, node, out: list) -> None:
        if isinstance(node, _Leaf):
            out.append(node)
            return
        for child in node.children:
            self._collect_leaves(child, out)

    @holds_write_lock
    def _insert(self, node, key, rowid: int):
        if isinstance(node, _Leaf):
            index = bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                if rowid in node.values[index]:
                    return None
                node.values[index].add(rowid)
                self._n_entries += 1
                return None
            node.keys.insert(index, key)
            node.values.insert(index, {rowid})
            self._n_entries += 1
            self._n_keys += 1
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        index = bisect_right(node.keys, key)
        result = self._insert(node.children[index], key, rowid)
        if result is None:
            return None
        separator, new_child = result
        node.keys.insert(index, separator)
        node.children.insert(index + 1, new_child)
        if len(node.keys) > self.order:
            return self._split_internal(node)
        return None

    @holds_write_lock
    def _split_leaf(self, node: _Leaf):
        mid = len(node.keys) // 2
        sibling = _Leaf()
        sibling.keys = node.keys[mid:]
        sibling.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        sibling.next = node.next
        sibling.prev = node
        if sibling.next is not None:
            sibling.next.prev = sibling
        node.next = sibling
        return sibling.keys[0], sibling

    @holds_write_lock
    def _split_internal(self, node: _Internal):
        mid = len(node.keys) // 2
        separator = node.keys[mid]
        sibling = _Internal()
        sibling.keys = node.keys[mid + 1:]
        sibling.children = node.children[mid + 1:]
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        return separator, sibling


class BTreeIndex:
    """Ordered index: equality, ranges, and ordered walks in both directions.

    Every row is indexed.  Single-column keys are ``sort_key(value)``
    (preserving the ``(rank, primitive)`` shape older numeric helpers rely
    on); composite keys are tuples of those.  ``sort_key(None)`` ranks below
    every number and string, so NULLs occupy the front of the key space —
    exactly where ``ORDER BY`` puts them — and :attr:`null_rowids` records
    which rows carry a NULL in any indexed column.
    """

    def __init__(self, name: str, columns, positions, unique: bool = False,
                 order: int = 64):
        self.name = name
        # one column name / position, or a sequence of them
        self.columns = (columns,) if isinstance(columns, str) else tuple(columns)
        self.positions = ((positions,) if isinstance(positions, int)
                          else tuple(positions))
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
        self._tree = BTree(order=order)
        self.null_rowids: set[int] = set()

    def __len__(self) -> int:
        return len(self._tree)

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    @property
    def column(self) -> str:
        """First (or only) indexed column — legacy single-column accessor."""
        return self.columns[0]

    @property
    def n_keys(self) -> int:
        """Number of distinct keys currently stored."""
        return self._tree.n_keys

    def covers(self, n_rows: int) -> bool:
        """True when every one of ``n_rows`` table rows is in the tree —
        the precondition for serving ``ORDER BY`` from a leaf walk."""
        return len(self._tree) == n_rows

    def touches(self, changed_positions) -> bool:
        """True when an update to ``changed_positions`` affects this key."""
        return any(p in changed_positions for p in self.positions)

    def key_values(self, row: Sequence) -> tuple:
        """This index's key components extracted from a stored row."""
        values = self._pick(row)
        return (values,) if self._single else values

    def entry_key(self, row: Sequence):
        """The key this index files ``row`` under.

        Used by MVCC readers to re-check that a row *version* still
        matches the index entry it was reached through (stale entries of
        superseded versions stay until GC), and by GC itself to decide
        which entries died with a version.
        """
        return self._key(self.key_values(row))

    def probe_key(self, values: tuple):
        """The key a probe for ``values`` targets (the expected entry key
        for an MVCC visible-version re-check)."""
        return self._key(values)

    def null_match(self, row: Sequence) -> bool:
        """True when ``row`` carries a NULL in any indexed column."""
        return any(row[p] is None for p in self.positions)

    # -- UNIQUE enforcement ----------------------------------------------------

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
        grouped by key, and the sorted groups are packed into leaves
        bottom-up (:meth:`BTree.load_sorted`).  UNIQUE is enforced on live
        rows with the same check — and error — as :meth:`insert_values`;
        chain versions are dead or superseded state whose keys may collide
        with a live row without constituting a violation, so they are
        never checked.
        """
        groups: dict = {}
        nulls: set = set()
        self._group(live, groups, nulls, self.unique)
        self._group(chained, groups, nulls, False)
        self._tree.load_sorted(sorted(groups.items(), key=itemgetter(0)))
        self.null_rowids = nulls

    @holds_write_lock
    def _group(self, entries, groups: dict, nulls: set,
               check_unique: bool) -> None:
        values_of = self.key_values
        key_of = self._key
        for rowid, row in entries:
            values = values_of(row)
            if None in values:
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

    @holds_write_lock
    def insert_values(self, values: tuple, rowid: int,
                      check_unique: bool = True) -> None:
        """Index ``rowid`` under the component tuple (NULLs included).

        ``check_unique=False`` skips UNIQUE enforcement — used when
        backfilling dead version-chain entries, whose keys may collide
        with live rows without constituting a violation.
        """
        has_null = None in values
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
        """Re-assert NULL tracking for ``row``.

        ``remove_values`` clears a rowid from :attr:`null_rowids` even
        when another live version of the row still has a NULL key; undo
        and GC call this for each survivor to restore it.
        """
        if any(row[p] is None for p in self.positions):
            self.null_rowids.add(rowid)

    # -- legacy single-value API (and tuple passthrough for composites) -----

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
    def insert(self, value, rowid: int) -> None:
        self.insert_values(self._values_of(value), rowid)

    @holds_write_lock
    def remove(self, value, rowid: int) -> None:
        self.remove_values(self._values_of(value), rowid)

    def lookup(self, value) -> set:
        return self.lookup_values(self._values_of(value))

    # -- point lookups ---------------------------------------------------------

    def lookup_values(self, values: tuple) -> set:
        """Rowids whose columns equal ``values`` (empty when any is NULL)."""
        if None in values:
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
        if None in values:
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
