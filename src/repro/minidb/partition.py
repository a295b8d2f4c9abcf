"""Table partitioning: hash/range routing, per-partition heaps and indexes.

A partitioned table declares ``PARTITION BY HASH(col) PARTITIONS n`` or
``PARTITION BY RANGE(col) SPLIT AT (v1, v2, ...)`` at CREATE TABLE time.
The partition count and routing rule are fixed for the table's lifetime
and recorded in the catalog (:class:`PartitionSpec` round-trips through
``TableSchema.to_dict``), so a reopened file routes every row exactly as
the writer did.

Three structures make partitioning invisible to the rest of the engine:

* :class:`PartitionedHeap` — the table's ``rows`` mapping.  It speaks the
  same ``dict``/``PagedHeap`` protocol every layer above already uses
  (``get``/``items``/``iter_chunks``/...), but physically stores each row
  in the bucket its partition-key value routes to.  A ``rowid ->
  partition`` map makes point reads O(1); iteration is partition-major.
* :class:`PartitionedIndex` — one sub-index (B+tree or hash) per
  partition behind the ordinary index facade.  Maintenance routes
  entries by the *row's* partition; ordered walks recombine the
  per-partition leaf streams through :class:`MergingIterator`.  UNIQUE
  is enforced globally (a key may live in any partition) before the
  routed sub-index insert.
* :class:`MergingIterator` — a k-way heap merge over already-sorted
  ``(key, payload)`` streams, with optional fusion of equal keys.  It
  recombines the per-partition index walks.

Routing hashes are **process-stable** (CRC32 over a normalized repr, not
the salted builtin ``hash``): the same value lands in the same partition
across interpreter runs.
"""

from __future__ import annotations

import heapq
import zlib
from bisect import bisect_right
from itertools import islice
from typing import Iterator, Sequence

from repro.errors import CatalogError
from repro.minidb.expressions import sort_key
from repro.minidb.hash_index import BTreeIndex, HashIndex, _IndexBase
from repro.minidb.invariants import holds_write_lock

HASH = "hash"
RANGE = "range"

#: partition counts beyond this are almost certainly a typo'd literal
MAX_PARTITIONS = 64


_MASK64 = (1 << 64) - 1


def stable_hash(value) -> int:
    """A process- and run-stable hash for partition routing.

    The builtin ``hash`` is salted per interpreter (PYTHONHASHSEED), so a
    durable file written by one process would route rows differently in
    the next.  Numeric values normalize the way index keys do (``1``,
    ``1.0`` and ``True`` route together); NULL routes to partition 0.

    CRC32 alone is GF(2)-linear: keys differing in one character produce
    deltas that systematically bias small moduli (``'c0'..'c6'`` all land
    in one bucket mod 3), so the CRC is finalized through a splitmix64
    avalanche before the caller takes it mod the partition count.
    """
    if value is None:
        return 0
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    tag = "n" if isinstance(value, (int, float)) else "t"
    x = zlib.crc32(f"{tag}:{value!r}".encode("utf-8"))
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class PartitionSpec:
    """The routing rule of one partitioned table (immutable).

    ``kind`` is :data:`HASH` or :data:`RANGE`; ``column`` the routing
    column.  Hash specs carry ``count`` buckets; range specs carry the
    sorted ``bounds`` literals — ``k`` split points make ``k + 1``
    partitions, value ``v`` landing in the first partition whose upper
    bound exceeds it (NULLs sort below everything and land in 0).
    """

    __slots__ = ("kind", "column", "count", "bounds", "_bound_keys")

    def __init__(self, kind: str, column: str, count: int = 0,
                 bounds: tuple = ()):
        if kind not in (HASH, RANGE):
            raise CatalogError(f"unknown partition kind {kind!r}")
        self.kind = kind
        self.column = column
        if kind == HASH:
            count = int(count)
            if not 2 <= count <= MAX_PARTITIONS:
                raise CatalogError(
                    f"HASH partition count must be in [2, {MAX_PARTITIONS}], "
                    f"got {count}"
                )
            self.count = count
            self.bounds = ()
            self._bound_keys = ()
        else:
            bounds = tuple(bounds)
            if not bounds:
                raise CatalogError("RANGE partitioning needs split points")
            keys = [sort_key(b) for b in bounds]
            if sorted(keys) != keys or len(set(keys)) != len(keys):
                raise CatalogError(
                    "RANGE split points must be strictly ascending"
                )
            if len(bounds) + 1 > MAX_PARTITIONS:
                raise CatalogError(
                    f"RANGE partitioning exceeds {MAX_PARTITIONS} partitions"
                )
            self.count = len(bounds) + 1
            self.bounds = bounds
            self._bound_keys = tuple(keys)

    @property
    def n_partitions(self) -> int:
        return self.count

    def partition_of(self, value) -> int:
        """The partition index ``value`` routes to."""
        if self.kind == HASH:
            return stable_hash(value) % self.count
        return bisect_right(self._bound_keys, sort_key(value))

    def describe(self) -> str:
        """Human-readable routing rule for EXPLAIN output."""
        if self.kind == HASH:
            return f"hash({self.column}) parts={self.count}"
        points = ",".join(repr(b) for b in self.bounds)
        return f"range({self.column}) split=({points})"

    def to_dict(self) -> dict:
        """JSON-serializable form for the durable catalog page."""
        data = {"kind": self.kind, "column": self.column}
        if self.kind == HASH:
            data["count"] = self.count
        else:
            data["bounds"] = list(self.bounds)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PartitionSpec":
        return cls(data["kind"], data["column"],
                   count=data.get("count", 0),
                   bounds=tuple(data.get("bounds", ())))

    def __eq__(self, other) -> bool:
        return (isinstance(other, PartitionSpec)
                and self.kind == other.kind and self.column == other.column
                and self.count == other.count and self.bounds == other.bounds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PartitionSpec({self.describe()})"


class PartitionedHeap:
    """A row heap physically split into per-partition buckets.

    Implements the mapping protocol ``Table.rows`` consumers rely on.
    Buckets are plain dicts in memory or ``PagedHeap``s when durable;
    ``_where`` maps each live rowid to its bucket.  Writers mutate only
    under the database write lock; lock-free readers may observe a torn
    move (row briefly absent from its routed bucket), which the MVCC read
    order ("rows before versions") already tolerates — any mutation
    concurrent with readers is versioned, and the published chain
    resolves the row.
    """

    _MISSING = object()

    def __init__(self, spec: PartitionSpec, key_position: int, buckets):
        if len(buckets) != spec.n_partitions:
            raise CatalogError(
                f"{spec.n_partitions} partitions need {spec.n_partitions} "
                f"buckets, got {len(buckets)}"
            )
        self.spec = spec
        self.key_position = key_position
        self.buckets = list(buckets)
        self._where: dict[int, int] = {}
        for part, bucket in enumerate(self.buckets):
            for rowid in bucket.keys():
                self._where[rowid] = part

    # -- routing ------------------------------------------------------------

    @property
    def n_partitions(self) -> int:
        return self.spec.n_partitions

    def route(self, values: Sequence) -> int:
        """The partition a row with ``values`` belongs to."""
        return self.spec.partition_of(values[self.key_position])

    def partition_of_rowid(self, rowid: int, default: int = 0) -> int:
        """The partition currently holding ``rowid`` (for index routing)."""
        return self._where.get(rowid, default)

    # -- mapping protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, rowid: int) -> bool:
        return rowid in self._where

    def __iter__(self) -> Iterator[int]:
        return self.keys()

    def keys(self) -> Iterator[int]:
        # per-bucket atomic copies: snapshot_scan captures its rowid set
        # via ``tuple(rows)`` while lock-free against concurrent writers,
        # and iterating a live dict view mid-mutation raises RuntimeError
        for bucket in self.buckets:
            yield from tuple(bucket.keys())

    def values(self) -> Iterator[list]:
        for bucket in self.buckets:
            yield from bucket.values()

    def items(self) -> Iterator[tuple]:
        for bucket in self.buckets:
            yield from bucket.items()

    def get(self, rowid: int, default=None):
        part = self._where.get(rowid)
        if part is None:
            return default
        return self.buckets[part].get(rowid, default)

    def __getitem__(self, rowid: int) -> list:
        part = self._where.get(rowid)
        if part is None:
            raise KeyError(rowid)
        return self.buckets[part][rowid]

    def __setitem__(self, rowid: int, values: list) -> None:
        part = self.route(values)
        old = self._where.get(rowid)
        # publish to the new bucket before retiring the old entry so a
        # lock-free reader never misses the row in *both* buckets while
        # holding a fresh `_where` entry
        self.buckets[part][rowid] = values
        self._where[rowid] = part
        if old is not None and old != part:
            self.buckets[old].pop(rowid, None)

    def __delitem__(self, rowid: int) -> None:
        part = self._where.pop(rowid, None)
        if part is None:
            raise KeyError(rowid)
        del self.buckets[part][rowid]

    def pop(self, rowid: int, default=_MISSING):
        part = self._where.pop(rowid, None)
        if part is None:
            if default is self._MISSING:
                raise KeyError(rowid)
            return default
        return self.buckets[part].pop(rowid)

    def clear(self) -> None:
        for bucket in self.buckets:
            bucket.clear()
        self._where.clear()

    # -- chunked scans ------------------------------------------------------

    def iter_chunks(self, size: int) -> Iterator[tuple]:
        """``(rowids, value_rows)`` chunks, partition-major, never crossing
        a partition boundary."""
        for part in range(self.n_partitions):
            yield from self.partition_chunks(part, size)

    def partition_chunks(self, part: int, size: int) -> Iterator[tuple]:
        """``(rowids, value_rows)`` chunks of one partition."""
        bucket = self.buckets[part]
        chunker = getattr(bucket, "iter_chunks", None)
        if chunker is not None:
            yield from chunker(size)
            return
        items = iter(bucket.items())
        while True:
            block = list(islice(items, size))
            if not block:
                return
            rowids, value_rows = zip(*block)
            yield rowids, value_rows

    # -- durable plumbing ---------------------------------------------------

    @property
    def first_pages(self) -> list:
        """Per-bucket first-page ids for the durable catalog (paged mode)."""
        return [bucket.first_page for bucket in self.buckets]

    def release(self) -> None:
        """Release every paged bucket's chain (DROP TABLE)."""
        for bucket in self.buckets:
            if hasattr(bucket, "release"):
                bucket.release()

    def max_rowid(self) -> int:
        best = 0
        for bucket in self.buckets:
            max_fn = getattr(bucket, "max_rowid", None)
            if max_fn is not None:
                best = max(best, max_fn())
            elif bucket:
                best = max(best, max(bucket.keys()))
        return best


class MergingIterator:
    """k-way merge of already-sorted ``(key, payload)`` streams.

    The template from the ROADMAP's distributed-LSM reference: seed a heap
    with each stream's head, pop the smallest, refill from that stream.
    ``reverse=True`` merges descending inputs.  Payloads never enter the
    comparison (they may be unorderable rows); ties break by stream index,
    keeping the merge stable in partition order.
    """

    __slots__ = ("_heap", "_streams", "_reverse")

    def __init__(self, streams, reverse: bool = False):
        self._reverse = reverse
        self._streams = [iter(s) for s in streams]
        self._heap: list = []
        for position, stream in enumerate(self._streams):
            self._push(position, stream)
        heapq.heapify(self._heap)

    def _push(self, position: int, stream) -> None:
        for key, payload in stream:
            rank = _Descending(key) if self._reverse else key
            self._heap.append((rank, position, key, payload))
            return

    def __iter__(self) -> "MergingIterator":
        return self

    def __next__(self) -> tuple:
        if not self._heap:
            raise StopIteration
        _rank, position, key, payload = heapq.heappop(self._heap)
        stream = self._streams[position]
        for next_key, next_payload in stream:
            rank = (_Descending(next_key) if self._reverse else next_key)
            heapq.heappush(self._heap, (rank, position, next_key, next_payload))
            break
        return key, payload

    @staticmethod
    def merged_groups(streams, reverse: bool = False) -> Iterator[tuple]:
        """Merge ``(key, rowids_tuple)`` group streams, fusing equal keys.

        Two partitions may both hold entries under one key; a single
        B+tree would present them as one group, so the merged stream
        concatenates their rowid tuples before yielding.
        """
        merged = MergingIterator(streams, reverse=reverse)
        current_key = _SENTINEL = object()
        current_rowids: tuple = ()
        for key, rowids in merged:
            if current_key is _SENTINEL:
                current_key, current_rowids = key, tuple(rowids)
            elif key == current_key:
                current_rowids = current_rowids + tuple(rowids)
            else:
                yield current_key, current_rowids
                current_key, current_rowids = key, tuple(rowids)
        if current_key is not _SENTINEL:
            yield current_key, current_rowids


class _Descending:
    """Inverts comparison so a min-heap merges descending streams."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other) -> bool:
        return other.key < self.key

    def __eq__(self, other) -> bool:
        return other.key == self.key


class PartitionedIndex(_IndexBase):
    """One sub-index per partition behind the single-index facade.

    Entry *placement* follows the row's partition (computed from its
    values, so a version's entries live where that version routed);
    removal sweeps every sub-index because an update that moved the row
    across partitions without touching the indexed columns leaves the
    entry where it was filed.  Sub-index removals are tolerant no-ops
    when the pair is absent, so the sweep is idempotent.

    UNIQUE enforcement runs at the facade — the duplicate key may live in
    any partition — and sub-inserts then skip their local check.
    """

    def __init__(self, name: str, columns, positions, unique: bool = False,
                 kind: str = "btree", spec: PartitionSpec = None,
                 key_position: int = 0):
        super().__init__(name, columns, positions, unique=unique)
        self.kind = kind
        self.spec = spec
        self.key_position = key_position
        sub_cls = {"btree": BTreeIndex, "hash": HashIndex}[kind]
        # facade-only UNIQUE: subs are created non-unique so their insert
        # paths never re-run a partition-local (and therefore incomplete)
        # duplicate check
        self.subs = [
            sub_cls(name, columns, positions, unique=False)
            for _ in range(spec.n_partitions)
        ]

    # _IndexBase.__init__ assigns ``self.owner = None`` before ``subs``
    # exists, so the setter must tolerate an uninitialized facade
    _owner = None

    @property
    def owner(self):
        return self._owner

    @owner.setter
    def owner(self, table) -> None:
        self._owner = table
        for sub in getattr(self, "subs", ()):
            sub.owner = table

    def _route(self, row: Sequence) -> int:
        return self.spec.partition_of(row[self.key_position])

    def _key(self, values: tuple):
        return self.subs[0]._key(values)

    # -- maintenance --------------------------------------------------------

    @holds_write_lock
    def add_row(self, row: Sequence, rowid: int,
                check_unique: bool = True) -> None:
        values = self.key_values(row)
        if self.unique and check_unique and not any(v is None for v in values):
            key = self._key(values)
            existing = self.lookup_values(values)
            if existing and existing != {rowid}:
                self._check_unique(existing, rowid, values, key)
        self.subs[self._route(row)].insert_values(values, rowid,
                                                  check_unique=False)

    @holds_write_lock
    def remove_row(self, row: Sequence, rowid: int) -> None:
        self.remove_values(self.key_values(row), rowid)

    @holds_write_lock
    def insert_values(self, values: tuple, rowid: int,
                      check_unique: bool = True) -> None:
        """Key-only insert (legacy/GC path): no row, so routing falls back
        to the rowid's current heap partition.  Placement is a locality
        choice, never a correctness one — every read fans over all subs."""
        if self.unique and check_unique and not any(v is None for v in values):
            key = self._key(values)
            existing = self.lookup_values(values)
            if existing and existing != {rowid}:
                self._check_unique(existing, rowid, values, key)
        part = 0
        owner = self._owner
        if owner is not None:
            heap = getattr(owner, "rows", None)
            locator = getattr(heap, "partition_of_rowid", None)
            if locator is not None:
                part = locator(rowid)
        self.subs[part].insert_values(values, rowid, check_unique=False)

    @holds_write_lock
    def remove_values(self, values: tuple, rowid: int) -> None:
        for sub in self.subs:
            sub.remove_values(values, rowid)

    @holds_write_lock
    def reindex_null(self, row: Sequence, rowid: int) -> None:
        self.subs[self._route(row)].reindex_null(row, rowid)

    # -- size & stats -------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(sub) for sub in self.subs)

    def covers(self, n_rows: int) -> bool:
        return len(self) == n_rows

    @property
    def n_keys(self) -> int:
        """Distinct keys across every partition (not the sum of sub
        counts — one key may live in several partitions)."""
        if self.kind == "hash":
            keys: set = set()
            for sub in self.subs:
                keys.update(sub._buckets)
            return len(keys)
        return sum(1 for _ in self.group_walk((None, None, True, True)))

    @property
    def null_rowids(self) -> set:
        union: set = set()
        for sub in self.subs:
            union.update(sub.null_rowids)
        return union

    # -- point lookups ------------------------------------------------------

    def lookup_values(self, values: tuple) -> set:
        result: set = set()
        for sub in self.subs:
            result.update(sub.lookup_values(values))
        return result

    def lookup_null(self) -> set:
        return self.null_rowids

    def keys(self) -> list:
        """Distinct indexed values (hash facade; normalized)."""
        seen: set = set()
        for sub in self.subs:
            seen.update(sub._buckets)
        if self.n_columns == 1:
            return [key[0] for key in seen]
        return list(seen)

    # -- ordered walks (B+tree facade) --------------------------------------

    def _keyed_prefix(self, sub, values, reverse, low, high,
                      include_low, include_high) -> Iterator[tuple]:
        bounds = sub.prefix_bounds(values, low, high, include_low,
                                   include_high)
        if bounds is None:
            return
        scan = sub._tree.range_scan_desc if reverse else sub._tree.range_scan
        for key, rowids in scan(*bounds):
            for rowid in rowids:
                yield key, rowid

    def prefix_scan(self, values: tuple, reverse: bool = False,
                    low=None, high=None, include_low: bool = True,
                    include_high: bool = True) -> Iterator[int]:
        if any(v is None for v in values):
            return
        streams = [
            self._keyed_prefix(sub, values, reverse, low, high,
                               include_low, include_high)
            for sub in self.subs
        ]
        for _key, rowid in MergingIterator(streams, reverse=reverse):
            yield rowid

    def ordered_groups(self) -> Iterator[tuple]:
        self.subs[0]._require_single("ordered_groups")
        bounds = self.merge_bounds()
        yield from self.group_walk(bounds)

    def order_bounds(self) -> tuple:
        return self.subs[0].order_bounds()

    def merge_bounds(self) -> tuple:
        return self.subs[0].merge_bounds()

    def range_bounds(self, low=None, high=None, include_low: bool = True,
                     include_high: bool = True) -> tuple:
        return self.subs[0].range_bounds(low, high, include_low, include_high)

    def prefix_bounds(self, values: tuple, low=None, high=None,
                      include_low: bool = True,
                      include_high: bool = True):
        return self.subs[0].prefix_bounds(values, low, high,
                                          include_low, include_high)

    def group_walk(self, bounds: tuple, reverse: bool = False, lock=None,
                   batch: int = 64) -> Iterator[tuple]:
        """Merged ``(tree_key, rowids)`` groups across every partition.

        Each sub-walk keeps its own lock batching and re-seek discipline;
        the merge fuses same-key groups so consumers see exactly the
        stream one global tree would produce."""
        streams = [
            sub.group_walk(bounds, reverse=reverse, lock=lock, batch=batch)
            for sub in self.subs
        ]
        yield from MergingIterator.merged_groups(streams, reverse=reverse)

    def ordered_rowids(self, reverse: bool = False) -> Iterator[int]:
        streams = [
            _keyed_groups(sub._tree.range_scan_desc(None, None) if reverse
                          else sub._tree.range_scan(None, None))
            for sub in self.subs
        ]
        for _key, rowid in MergingIterator(streams, reverse=reverse):
            yield rowid

    def range(self, low=None, high=None, include_low: bool = True,
              include_high: bool = True, reverse: bool = False) -> Iterator[int]:
        self.subs[0]._require_single("range")
        bounds = self.range_bounds(low, high, include_low, include_high)
        low_key, high_key, inc_low, inc_high = bounds
        streams = []
        for sub in self.subs:
            scan = sub._tree.range_scan_desc if reverse else sub._tree.range_scan
            streams.append(_keyed_groups(scan(low_key, high_key,
                                              inc_low, inc_high)))
        for _key, rowid in MergingIterator(streams, reverse=reverse):
            yield rowid

    def numeric_range(self, low=None, high=None, include_low: bool = True,
                      include_high: bool = True) -> Iterator[int]:
        self.subs[0]._require_single("numeric_range")
        streams = [
            _keyed_groups(sub._tree.range_scan(
                sort_key(low) if low is not None else (1, float("-inf")),
                sort_key(high) if high is not None else (1, float("inf")),
                include_low, include_high))
            for sub in self.subs
        ]
        for _key, rowid in MergingIterator(streams):
            yield rowid

    def numeric_min(self):
        lows = [sub.numeric_min() for sub in self.subs]
        lows = [v for v in lows if v is not None]
        return min(lows) if lows else None

    def numeric_max(self):
        highs = [sub.numeric_max() for sub in self.subs]
        highs = [v for v in highs if v is not None]
        return max(highs) if highs else None


def _keyed_groups(scan) -> Iterator[tuple]:
    """Flatten a ``(key, rowids)`` scan to mergeable ``(key, rowid)`` pairs."""
    for key, rowids in scan:
        for rowid in rowids:
            yield key, rowid
