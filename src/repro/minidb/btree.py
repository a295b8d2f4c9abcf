"""A B+tree mapping sort keys to sets of rowids.

This backs minidb's range-scannable indexes — the structure the paper's
pan-and-zoom region queries (§4.2) and outlier threshold scans rely on.

Design notes:

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
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.minidb.invariants import holds_write_lock
from typing import Iterator


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
