"""Durable paged storage: slotted 4KB pages behind an LRU buffer pool.

This is the file half of minidb's storage engine (the ROADMAP's
"durable paged storage + buffer pool" item).  Layout::

    page 0          file header (magic, page size, catalog pointer,
                    durable WAL LSN, page count)
    page 1..N       fixed-size pages, one of:
      DATA          slotted heap page: row records addressed by slot
      OVERFLOW      chunk of one oversized row (chained)
      CATALOG       chunk of the JSON-serialized schema catalog (chained)

**Slotted pages** (DATA): a 12-byte header, a slot directory growing
down from the header, and record cells growing up from the page end.
Deleting a record tombstones its slot and counts the bytes as garbage;
an insert that fits the page's total free space but not the contiguous
hole compacts the cells in place first.

**Buffer pool**: ``Pager`` holds at most ``pool_pages`` pages, clean and
dirty together.  Eviction is *clean-only* (no-steal): a dirty page is
pinned in a separate dirty set — out of the LRU ``OrderedDict`` that
holds only clean pages — until :meth:`Pager.flush` (called by the
database's checkpoint) writes it back and returns it to the LRU, so the
heap file on disk always reflects a transaction-consistent checkpoint
state and crash recovery is simply "load the heap, replay the WAL tail".
The eviction rule is therefore one step: while clean + dirty pages
exceed the budget, drop the least recently used clean page (the LRU
head) — no walk past dirty pages.  Under a write burst the pool can
temporarily exceed its budget with dirty pages alone; the database
bounds that by checkpointing on dirty-page pressure.

**Freed pages** (dropped tables, rewritten catalogs, dead overflow
chains) are reused only after the *next completed checkpoint*: until the
new file header is durable, the previous checkpoint's catalog may still
be the recovery root and must keep every page it references intact.
There is no on-disk free list — recovery recomputes free pages as
"allocated but reachable from no chain".

:class:`PagedHeap` adapts a page chain to the dict protocol
``Table.rows`` expects (``get``/``[]``/``del``/``pop``/``items``/…), so
the MVCC, executor, index and statistics layers run unchanged against
either backing store.  The rowid -> (page, slot) directory lives in
memory (rebuilt by scanning the chain at open); row *data* lives on
pages, which is what lets a dataset exceed RAM.
"""

from __future__ import annotations

import os
import struct
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Iterator

from repro.errors import DatabaseError
from repro.minidb.record import decode_values, encode_values

PAGE_SIZE = 4096

PAGE_DATA = 1
PAGE_OVERFLOW = 2
PAGE_CATALOG = 3

#: page header: type, flags, slot_count, cell_start, garbage, next_page
_PAGE_HEADER = struct.Struct("<BBHHHI")
HEADER_SIZE = _PAGE_HEADER.size  # 12

_SLOT = struct.Struct("<HH")  # (cell offset, cell length); offset 0 = dead
SLOT_SIZE = _SLOT.size  # 4

#: chunk pages (OVERFLOW / CATALOG): page header + chunk length + bytes
_CHUNK_LEN = struct.Struct("<H")
CHUNK_CAPACITY = PAGE_SIZE - HEADER_SIZE - _CHUNK_LEN.size

#: file header (page 0): magic, version, page size, catalog page,
#: page count, durable LSN
_FILE_HEADER = struct.Struct("<4sHHIIQ")
MAGIC = b"MDB1"
FORMAT_VERSION = 1

#: heap record prefix: rowid, flag (0 inline, 1 overflow reference)
_RECORD = struct.Struct("<QB")
_OVERFLOW_REF = struct.Struct("<II")  # first overflow page, total length
FLAG_INLINE = 0
FLAG_OVERFLOW = 1

#: the largest record payload an empty page can hold inline
MAX_INLINE = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE


class Page:
    """One fixed-size page: a bytearray with slotted-record accessors."""

    __slots__ = ("pid", "buf")

    def __init__(self, pid: int, buf: bytearray | None = None):
        self.pid = pid
        self.buf = buf if buf is not None else bytearray(PAGE_SIZE)

    def init(self, page_type: int) -> None:
        """Format the page as empty of the given type."""
        self.buf[:] = bytes(PAGE_SIZE)
        self._set_header(page_type, 0, 0, PAGE_SIZE, 0, 0)

    # -- header ----------------------------------------------------------------

    def _header(self) -> tuple:
        return _PAGE_HEADER.unpack_from(self.buf, 0)

    def _set_header(self, ptype: int, flags: int, slots: int, cell_start: int,
                    garbage: int, next_page: int) -> None:
        _PAGE_HEADER.pack_into(self.buf, 0, ptype, flags, slots, cell_start,
                               garbage, next_page)

    @property
    def page_type(self) -> int:
        return self.buf[0]

    @property
    def slot_count(self) -> int:
        return self._header()[2]

    @property
    def cell_start(self) -> int:
        return self._header()[3]

    @property
    def garbage(self) -> int:
        return self._header()[4]

    @property
    def next_page(self) -> int:
        return self._header()[5]

    @next_page.setter
    def next_page(self, pid: int) -> None:
        t, f, s, c, g, _ = self._header()
        self._set_header(t, f, s, c, g, pid)

    # -- slotted records ---------------------------------------------------------

    def _slot(self, index: int) -> tuple:
        return _SLOT.unpack_from(self.buf, HEADER_SIZE + SLOT_SIZE * index)

    def _set_slot(self, index: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self.buf, HEADER_SIZE + SLOT_SIZE * index,
                        offset, length)

    def free_total(self) -> int:
        """Reusable bytes: the contiguous hole plus compactable garbage."""
        t, f, slots, cell_start, garbage, n = self._header()
        return cell_start - (HEADER_SIZE + SLOT_SIZE * slots) + garbage

    def insert(self, payload: bytes) -> int | None:
        """Store ``payload`` in a free slot; None when it cannot fit."""
        need = len(payload)
        t, flags, slots, cell_start, garbage, nxt = self._header()
        dead = None
        if garbage or flags:  # flags bit 0: dead slots may exist
            for i in range(slots):
                if self._slot(i)[0] == 0:
                    dead = i
                    break
        slot_dir_end = HEADER_SIZE + SLOT_SIZE * slots
        slot_cost = 0 if dead is not None else SLOT_SIZE
        contiguous = cell_start - slot_dir_end - slot_cost
        if contiguous < need:
            if contiguous + garbage < need:
                return None
            self.compact()
            t, flags, slots, cell_start, garbage, nxt = self._header()
        offset = cell_start - need
        self.buf[offset:offset + need] = payload
        if dead is not None:
            index = dead
        else:
            index = slots
            slots += 1
        self._set_header(t, flags, slots, offset, garbage, nxt)
        self._set_slot(index, offset, need)
        return index

    def read(self, index: int) -> memoryview:
        offset, length = self._slot(index)
        if offset == 0:
            raise DatabaseError(
                f"page {self.pid}: slot {index} is empty"
            )
        return memoryview(self.buf)[offset:offset + length]

    def delete(self, index: int) -> None:
        offset, length = self._slot(index)
        if offset == 0:
            return
        self._set_slot(index, 0, 0)
        t, flags, slots, cell_start, garbage, nxt = self._header()
        garbage += length
        flags |= 1  # dead slots exist: insert() scans for one to reuse
        if all(self._slot(i)[0] == 0 for i in range(slots)):
            # page fully emptied: reset the slot directory outright
            slots, cell_start, garbage, flags = 0, PAGE_SIZE, 0, 0
        self._set_header(t, flags, slots, cell_start, garbage, nxt)

    def compact(self) -> None:
        """Repack live cells against the page end, squeezing out garbage."""
        t, flags, slots, _cell, _garbage, nxt = self._header()
        live = []
        for i in range(slots):
            offset, length = self._slot(i)
            if offset:
                live.append((i, bytes(self.buf[offset:offset + length])))
        cell = PAGE_SIZE
        for i, data in live:
            cell -= len(data)
            self.buf[cell:cell + len(data)] = data
            self._set_slot(i, cell, len(data))
        self._set_header(t, flags, slots, cell, 0, nxt)

    def records(self) -> Iterator[tuple[int, memoryview]]:
        """Yield ``(slot_index, payload)`` for every live slot, in order."""
        for i in range(self.slot_count):
            offset, length = self._slot(i)
            if offset:
                yield i, memoryview(self.buf)[offset:offset + length]

    # -- chunk pages (overflow / catalog chains) ---------------------------------

    def set_chunk(self, data: bytes) -> None:
        _CHUNK_LEN.pack_into(self.buf, HEADER_SIZE, len(data))
        start = HEADER_SIZE + _CHUNK_LEN.size
        self.buf[start:start + len(data)] = data

    def get_chunk(self) -> bytes:
        (length,) = _CHUNK_LEN.unpack_from(self.buf, HEADER_SIZE)
        start = HEADER_SIZE + _CHUNK_LEN.size
        return bytes(self.buf[start:start + length])


class Pager:
    """Page-granular file I/O behind a clean-only-eviction LRU pool."""

    def __init__(self, path: str | Path, pool_pages: int = 256,
                 fsync: bool = True):
        self.path = Path(path)
        self.lock = threading.RLock()
        self.pool_pages = max(4, int(pool_pages))
        self.fsync_enabled = bool(fsync)
        self._pool: OrderedDict[int, Page] = OrderedDict()
        self._dirty: dict[int, Page] = {}
        #: reusable now (durably unreferenced) / after the next checkpoint
        self._free: list[int] = []
        self._pending_free: list[int] = []
        self.stats = {"hits": 0, "misses": 0, "evictions": 0,
                      "pages_written": 0, "pages_allocated": 0}
        created = not self.path.exists() or self.path.stat().st_size == 0
        self._fh = open(self.path, "w+b" if created else "r+b")
        if created:
            self.page_count = 1  # page 0 is the file header
            self.catalog_page = 0
            self.durable_lsn = 0
            self.write_header(sync=self.fsync_enabled)
        else:
            try:
                self._read_header()
            except DatabaseError:
                self._fh.close()  # a refused file keeps no open handle
                raise

    # -- file header -------------------------------------------------------------

    def _read_header(self) -> None:
        self._fh.seek(0)
        raw = self._fh.read(_FILE_HEADER.size)
        if len(raw) < _FILE_HEADER.size:
            raise DatabaseError(f"{self.path}: not a minidb database file")
        magic, version, page_size, catalog, count, lsn = _FILE_HEADER.unpack(raw)
        if magic != MAGIC:
            raise DatabaseError(f"{self.path}: not a minidb database file")
        if version != FORMAT_VERSION:
            raise DatabaseError(
                f"{self.path}: file format v{version}, expected "
                f"v{FORMAT_VERSION}"
            )
        if page_size != PAGE_SIZE:
            raise DatabaseError(
                f"{self.path}: page size {page_size}, expected {PAGE_SIZE}"
            )
        self.catalog_page = catalog
        self.page_count = max(1, count)
        self.durable_lsn = lsn

    def write_header(self, sync: bool = True) -> None:
        """Persist the file header — the checkpoint's atomic commit point."""
        raw = _FILE_HEADER.pack(MAGIC, FORMAT_VERSION, PAGE_SIZE,
                                self.catalog_page, self.page_count,
                                self.durable_lsn)
        with self.lock:
            self._fh.seek(0)
            self._fh.write(raw.ljust(PAGE_SIZE, b"\x00"))
            self._fh.flush()
            if sync and self.fsync_enabled:
                os.fsync(self._fh.fileno())

    # -- page access -------------------------------------------------------------

    def get(self, pid: int) -> Page:
        """The page, through the pool (reads from disk on a miss)."""
        with self.lock:
            page = self._pool.get(pid)
            if page is not None:
                self._pool.move_to_end(pid)
                self.stats["hits"] += 1
                return page
            page = self._dirty.get(pid)
            if page is not None:  # dirty pages live outside the LRU
                self.stats["hits"] += 1
                return page
            if pid <= 0 or pid >= self.page_count:
                raise DatabaseError(f"page {pid} out of range")
            self.stats["misses"] += 1
            self._fh.seek(pid * PAGE_SIZE)
            raw = self._fh.read(PAGE_SIZE)
            buf = bytearray(raw)
            if len(buf) < PAGE_SIZE:  # allocated past EOF, never flushed
                buf.extend(bytes(PAGE_SIZE - len(buf)))
            page = Page(pid, buf)
            self._admit(page)
            return page

    def allocate(self, page_type: int) -> Page:
        """A fresh page of ``page_type`` (reuses durably-free pages first)."""
        with self.lock:
            if self._free:
                pid = self._free.pop()
            else:
                pid = self.page_count
                self.page_count += 1
            page = Page(pid)
            page.init(page_type)
            self.stats["pages_allocated"] += 1
            # a fresh page has no durable image to re-read: it is dirty
            # (never evicted) until the next flush
            self.mark_dirty(page)
            self._evict()
            return page

    def free(self, pid: int) -> None:
        """Release a page — reusable only after the next checkpoint (the
        last durable header may still reference it as recovery state)."""
        with self.lock:
            self._pending_free.append(pid)
            self._dirty.pop(pid, None)
            self._pool.pop(pid, None)

    def mark_dirty(self, page: Page) -> None:
        """Pin ``page`` in memory until the next :meth:`flush` (it leaves
        the clean LRU; :meth:`get` serves it from the dirty set)."""
        with self.lock:
            self._dirty[page.pid] = page
            self._pool.pop(page.pid, None)

    @property
    def dirty_pages(self) -> int:
        return len(self._dirty)

    @property
    def resident_pages(self) -> int:
        return len(self._pool) + len(self._dirty)

    def _admit(self, page: Page) -> None:
        self._pool[page.pid] = page
        self._evict()

    def _evict(self) -> None:
        """Drop least recently used clean pages while over budget.  When
        only dirty pages are left the pool exceeds its budget until the
        next checkpoint flushes them clean."""
        pool = self._pool
        while pool and len(pool) + len(self._dirty) > self.pool_pages:
            pool.popitem(last=False)
            self.stats["evictions"] += 1

    def resize_pool(self, pool_pages: int) -> None:
        with self.lock:
            self.pool_pages = max(4, int(pool_pages))
            self._evict()

    # -- durability ---------------------------------------------------------------

    def flush(self, sync: bool = True) -> int:
        """Write every dirty page back to the file; returns pages written."""
        with self.lock:
            written = 0
            for pid in sorted(self._dirty):
                page = self._dirty[pid]
                self._fh.seek(pid * PAGE_SIZE)
                self._fh.write(bytes(page.buf))
                written += 1
                self._pool[pid] = page  # clean again: back into the LRU
            self._dirty.clear()
            if written:
                self._fh.flush()
                if sync and self.fsync_enabled:
                    os.fsync(self._fh.fileno())
            self.stats["pages_written"] += written
            # the pool may hold more pages than its budget allows while
            # they were dirty; trim back now that they are clean
            self._evict()
            return written

    def promote_pending_free(self) -> None:
        """After a completed checkpoint, pending-free pages are durably
        unreferenced and become allocatable."""
        with self.lock:
            self._free.extend(self._pending_free)
            self._pending_free.clear()

    def set_free_pages(self, pids) -> None:
        """Install the free set recovery computed (unreachable pages)."""
        with self.lock:
            self._free = sorted(pids, reverse=True)

    def close(self) -> None:
        with self.lock:
            if self._fh.closed:
                return
            self._fh.close()

    # -- chains (overflow rows, catalog blobs) ------------------------------------

    def write_chain(self, data: bytes, page_type: int) -> int:
        """Store ``data`` across a chain of chunk pages; returns the head."""
        with self.lock:
            first = prev = None
            offset = 0
            while True:
                chunk = data[offset:offset + CHUNK_CAPACITY]
                page = self.allocate(page_type)
                page.set_chunk(chunk)
                if prev is not None:
                    prev.next_page = page.pid
                    self.mark_dirty(prev)
                else:
                    first = page.pid
                prev = page
                offset += CHUNK_CAPACITY
                if offset >= len(data):
                    break
            return first

    def read_chain(self, first_pid: int) -> bytes:
        with self.lock:
            parts = []
            pid = first_pid
            while pid:
                page = self.get(pid)
                parts.append(page.get_chunk())
                pid = page.next_page
            return b"".join(parts)

    def chain_pids(self, first_pid: int) -> list[int]:
        with self.lock:
            pids = []
            pid = first_pid
            while pid:
                pids.append(pid)
                pid = self.get(pid).next_page
            return pids

    def free_chain(self, first_pid: int) -> None:
        with self.lock:
            for pid in self.chain_pids(first_pid):
                self.free(pid)


class PagedHeap:
    """A table's row heap on slotted pages, speaking the dict protocol.

    Drop-in for the ``rowid -> values`` dict ``Table.rows`` used to be:
    the storage, executor, statistics and backend layers keep calling
    ``get``/``[]``/``pop``/``items`` and never learn rows now live on
    pages.  Every operation runs under the pager lock and finishes its
    page access before returning, so evictions never invalidate state a
    caller still holds.
    """

    def __init__(self, pager: Pager, first_page: int | None = None):
        self.pager = pager
        if first_page is None:
            page = pager.allocate(PAGE_DATA)
            first_page = page.pid
        self.first_page = first_page
        self._tail = first_page
        self.directory: dict[int, tuple[int, int]] = {}
        #: recently-holed pages worth trying before growing the chain
        self._open: list[int] = []

    # -- recovery ---------------------------------------------------------------

    def load(self) -> set[int]:
        """Rebuild the rowid directory by scanning the page chain.

        Returns every page id this heap references (data pages plus
        overflow chains) so recovery can compute the free set.
        """
        pager = self.pager
        with pager.lock:
            reachable: set[int] = set()
            pid = self.first_page
            last = pid
            while pid:
                reachable.add(pid)
                page = pager.get(pid)
                for slot, payload in page.records():
                    rowid, flag = _RECORD.unpack_from(payload, 0)
                    self.directory[rowid] = (pid, slot)
                    if flag == FLAG_OVERFLOW:
                        (ov_pid, _length) = _OVERFLOW_REF.unpack_from(
                            payload, _RECORD.size
                        )
                        reachable.update(pager.chain_pids(ov_pid))
                if page.free_total() > 64 and pid != self._tail:
                    self._note_open(pid)
                last = pid
                pid = page.next_page
            self._tail = last
            return reachable

    def max_rowid(self) -> int:
        return max(self.directory) if self.directory else 0

    # -- dict protocol -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.directory)

    def __contains__(self, rowid: int) -> bool:
        return rowid in self.directory

    def __iter__(self) -> Iterator[int]:
        return iter(self.directory)

    def keys(self):
        return self.directory.keys()

    def get(self, rowid: int, default=None):
        # the directory is read under the same lock hold as the slot: a
        # writer relocating the row in between would leave ``loc`` naming
        # an emptied (or reused) slot
        with self.pager.lock:
            loc = self.directory.get(rowid)
            if loc is None:
                return default
            return self._fetch(loc)

    def __getitem__(self, rowid: int) -> list:
        values = self.get(rowid)
        if values is None:
            raise KeyError(rowid)
        return values

    def __setitem__(self, rowid: int, values: list) -> None:
        with self.pager.lock:
            old = self.directory.get(rowid)
            if old is not None:
                self._remove(old)
            self.directory[rowid] = self._store(rowid, values)

    def __delitem__(self, rowid: int) -> None:
        with self.pager.lock:
            try:
                loc = self.directory.pop(rowid)
            except KeyError:
                raise KeyError(rowid) from None
            self._remove(loc)

    _MISSING = object()

    def pop(self, rowid: int, default=_MISSING):
        with self.pager.lock:
            loc = self.directory.get(rowid)
            if loc is None:
                if default is self._MISSING:
                    raise KeyError(rowid)
                return default
            values = self._fetch(loc)
            del self.directory[rowid]
            self._remove(loc)
            return values

    def values(self) -> Iterator[list]:
        for rowid in list(self.directory):
            values = self.get(rowid)
            if values is not None:
                yield values

    def items(self) -> Iterator[tuple[int, list]]:
        for rowid in list(self.directory):
            values = self.get(rowid)
            if values is not None:
                yield rowid, values

    def iter_chunks(self, size: int) -> Iterator[tuple[list, list]]:
        """Yield ``(rowids, value_rows)`` chunks for batched scans.

        Decodes a whole chunk per pager-lock acquisition and re-fetches a
        page only when the pid changes between consecutive records —
        insertion order clusters rowids on pages, so a 1k-row chunk
        typically costs a handful of buffer-pool hits instead of one
        ``get`` per row.  Like ``items()``, the rowid set is snapshotted
        up front and each location is re-read at decode time, so rows
        deleted mid-scan are skipped rather than resurrected.
        """
        pager = self.pager
        directory = self.directory
        all_rowids = list(directory)
        for start in range(0, len(all_rowids), size):
            block = all_rowids[start:start + size]
            out_ids: list = []
            out_rows: list = []
            with pager.lock:
                page = None
                page_pid = None
                for rowid in block:
                    loc = directory.get(rowid)
                    if loc is None:
                        continue  # deleted since the snapshot
                    pid, slot = loc
                    if pid != page_pid:
                        page = pager.get(pid)
                        page_pid = pid
                    payload = page.read(slot)
                    _rowid, flag = _RECORD.unpack_from(payload, 0)
                    if flag == FLAG_INLINE:
                        values = decode_values(payload, _RECORD.size)
                    else:
                        ov_pid, _length = _OVERFLOW_REF.unpack_from(
                            payload, _RECORD.size
                        )
                        values = decode_values(pager.read_chain(ov_pid))
                        page_pid = None  # read_chain may churn the pool
                    out_ids.append(rowid)
                    out_rows.append(values)
            if out_ids:
                yield out_ids, out_rows

    def clear(self) -> None:
        with self.pager.lock:
            for rowid in list(self.directory):
                del self[rowid]

    # -- internals ---------------------------------------------------------------

    def _fetch(self, loc: tuple[int, int]) -> list:
        """Decode the record at ``loc``; the caller holds the pager lock."""
        pager = self.pager
        pid, slot = loc
        payload = pager.get(pid).read(slot)
        _rowid, flag = _RECORD.unpack_from(payload, 0)
        if flag == FLAG_INLINE:
            return decode_values(payload, _RECORD.size)
        ov_pid, _length = _OVERFLOW_REF.unpack_from(payload, _RECORD.size)
        return decode_values(pager.read_chain(ov_pid))

    def _store(self, rowid: int, values: list) -> tuple[int, int]:
        pager = self.pager
        encoded = encode_values(values)
        if _RECORD.size + len(encoded) <= MAX_INLINE:
            payload = _RECORD.pack(rowid, FLAG_INLINE) + encoded
        else:
            ov_pid = pager.write_chain(encoded, PAGE_OVERFLOW)
            payload = (_RECORD.pack(rowid, FLAG_OVERFLOW)
                       + _OVERFLOW_REF.pack(ov_pid, len(encoded)))
        tail = pager.get(self._tail)
        slot = tail.insert(payload)
        if slot is not None:
            pager.mark_dirty(tail)
            return (tail.pid, slot)
        for pid in list(self._open):
            page = pager.get(pid)
            slot = page.insert(payload)
            if slot is not None:
                pager.mark_dirty(page)
                if page.free_total() <= 64:
                    self._open = [p for p in self._open if p != pid]
                return (pid, slot)
        fresh = pager.allocate(PAGE_DATA)
        tail.next_page = fresh.pid
        pager.mark_dirty(tail)
        self._tail = fresh.pid
        slot = fresh.insert(payload)
        return (fresh.pid, slot)

    def _remove(self, loc: tuple[int, int]) -> None:
        pager = self.pager
        pid, slot = loc
        page = pager.get(pid)
        payload = page.read(slot)
        _rowid, flag = _RECORD.unpack_from(payload, 0)
        if flag == FLAG_OVERFLOW:
            ov_pid, _length = _OVERFLOW_REF.unpack_from(payload, _RECORD.size)
            pager.free_chain(ov_pid)
        page.delete(slot)
        pager.mark_dirty(page)
        self._note_open(pid)

    def _note_open(self, pid: int) -> None:
        if pid not in self._open:
            self._open.append(pid)
            if len(self._open) > 16:
                self._open.pop(0)

    def release(self) -> None:
        """Free every page this heap owns (DROP TABLE)."""
        pager = self.pager
        with pager.lock:
            pid = self.first_page
            while pid:
                page = pager.get(pid)
                for _slot, payload in page.records():
                    _rowid, flag = _RECORD.unpack_from(payload, 0)
                    if flag == FLAG_OVERFLOW:
                        ov_pid, _len = _OVERFLOW_REF.unpack_from(
                            payload, _RECORD.size
                        )
                        pager.free_chain(ov_pid)
                nxt = page.next_page
                pager.free(pid)
                pid = nxt
            self.directory.clear()
