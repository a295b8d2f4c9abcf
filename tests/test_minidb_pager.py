"""Unit tests for the paged storage layer: binary records, slotted
pages, the buffer pool, chunk chains, and the dict-protocol PagedHeap."""

import struct
import threading

import pytest

from repro.errors import DatabaseError
from repro.minidb.pager import (
    CHUNK_CAPACITY,
    PAGE_DATA,
    PAGE_OVERFLOW,
    PAGE_SIZE,
    Page,
    PagedHeap,
    Pager,
)
from repro.minidb.record import decode_values, encode_values


@pytest.fixture
def pager(tmp_path):
    p = Pager(tmp_path / "unit.db", pool_pages=8)
    yield p
    p.close()


class TestRecordCodec:
    @pytest.mark.parametrize("values", [
        [],
        [None],
        [1, 2, 3],
        [-(2 ** 63), 2 ** 63 - 1],
        [2 ** 80, -(2 ** 90)],           # beyond i64: decimal-text tag
        [0.5, -1.25, 1e300],
        ["", "hello", "naïve café ünïcode", "x" * 10_000],
        [None, 7, 2.5, "mixed", 10 ** 30],
        ['[1, 2, {"k": "v"}]'],          # JSON-looking text stays text
    ])
    def test_round_trip(self, values):
        assert decode_values(encode_values(values)) == values

    def test_round_trip_at_offset(self):
        blob = b"prefix" + encode_values([1, "two"])
        assert decode_values(blob, 6) == [1, "two"]

    def test_unknown_tag_raises(self):
        bad = bytearray(encode_values([1]))
        bad[2] = 250  # clobber the value tag
        with pytest.raises(DatabaseError, match="unknown value tag"):
            decode_values(bytes(bad))

    def test_retired_json_tag_raises(self):
        """Tag 5 once held a JSON list or object; it decodes to no value."""
        blob = b'[1, 2, {"k": "v"}]'
        record = struct.pack("<HBI", 1, 5, len(blob)) + blob
        with pytest.raises(DatabaseError, match="unknown value tag 5"):
            decode_values(record)

    def test_unserializable_value_raises(self):
        with pytest.raises(DatabaseError, match="cannot store"):
            encode_values([object()])

    @pytest.mark.parametrize("value", [[1, 2], {"k": "v"}])
    def test_non_scalar_value_raises(self, value):
        with pytest.raises(DatabaseError, match="cannot store"):
            encode_values([value])


class TestSlottedPage:
    def test_insert_read_delete(self):
        page = Page(1)
        page.init(PAGE_DATA)
        s0 = page.insert(b"alpha")
        s1 = page.insert(b"beta")
        assert bytes(page.read(s0)) == b"alpha"
        assert bytes(page.read(s1)) == b"beta"
        page.delete(s0)
        with pytest.raises(DatabaseError):
            page.read(s0)
        assert bytes(page.read(s1)) == b"beta"

    def test_dead_slot_is_reused(self):
        page = Page(1)
        page.init(PAGE_DATA)
        s0 = page.insert(b"aaaa")
        page.insert(b"bbbb")
        page.delete(s0)
        assert page.insert(b"cccc") == s0  # tombstoned slot recycled

    def test_fills_up_and_rejects(self):
        page = Page(1)
        page.init(PAGE_DATA)
        payload = b"x" * 100
        count = 0
        while page.insert(payload) is not None:
            count += 1
        # 12B header + per-record 100B cell + 4B slot
        assert count == (PAGE_SIZE - 12) // 104
        assert page.insert(payload) is None

    def test_compaction_reclaims_garbage(self):
        page = Page(1)
        page.init(PAGE_DATA)
        slots = [page.insert(b"y" * 400) for _ in range(10)]
        assert page.insert(b"z" * 400) is None  # full
        for slot in slots[::2]:
            page.delete(slot)
        # contiguous hole is still small, but garbage makes room: the
        # insert below must trigger in-page compaction and succeed
        slot = page.insert(b"z" * 400)
        assert slot is not None
        assert bytes(page.read(slot)) == b"z" * 400
        for slot in slots[1::2]:
            assert bytes(page.read(slot)) == b"y" * 400  # survivors intact

    def test_emptied_page_resets(self):
        page = Page(1)
        page.init(PAGE_DATA)
        slots = [page.insert(b"data") for _ in range(3)]
        for slot in slots:
            page.delete(slot)
        assert page.slot_count == 0
        assert page.garbage == 0
        assert page.free_total() == PAGE_SIZE - 12

    def test_records_iterates_live_slots_in_order(self):
        page = Page(1)
        page.init(PAGE_DATA)
        page.insert(b"a")
        s1 = page.insert(b"b")
        page.insert(b"c")
        page.delete(s1)
        assert [(i, bytes(p)) for i, p in page.records()] == [
            (0, b"a"), (2, b"c"),
        ]


class TestPager:
    def test_pages_survive_reopen(self, tmp_path):
        path = tmp_path / "p.db"
        pager = Pager(path)
        page = pager.allocate(PAGE_DATA)
        slot = page.insert(b"durable payload")
        pager.mark_dirty(page)
        pager.flush()
        pager.write_header()  # the header write is the durability commit point
        pid = page.pid
        pager.close()

        reopened = Pager(path)
        assert bytes(reopened.get(pid).read(slot)) == b"durable payload"
        reopened.close()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.db"
        path.write_bytes(b"not a database file" * 300)
        with pytest.raises(DatabaseError, match="not a minidb database"):
            Pager(path)

    def test_eviction_is_clean_only_and_bounded(self, tmp_path):
        pager = Pager(tmp_path / "evict.db", pool_pages=4)
        dirty = [pager.allocate(PAGE_DATA) for _ in range(6)]
        # every page is dirty: nothing can be evicted, the pool overruns
        assert pager.resident_pages == 6
        pager.flush()
        # flush made them clean; the pool trims back to its budget
        assert pager.resident_pages <= 4
        # clean pages reload from disk on demand
        for page in dirty:
            assert pager.get(page.pid).page_type == PAGE_DATA
        assert pager.resident_pages <= 4
        assert pager.stats["evictions"] > 0
        pager.close()

    def test_chain_round_trip_and_free(self, tmp_path):
        pager = Pager(tmp_path / "chain.db", pool_pages=8)
        blob = bytes(range(256)) * 64  # 16KB: spans several chunk pages
        first = pager.write_chain(blob, PAGE_OVERFLOW)
        assert pager.read_chain(first) == blob
        pids = pager.chain_pids(first)
        assert len(pids) == -(-len(blob) // CHUNK_CAPACITY)
        pager.free_chain(first)
        # two-phase free: reusable only after the checkpoint completes
        before = pager.page_count
        fresh = pager.allocate(PAGE_DATA)
        assert fresh.pid == before  # freed pages not yet reusable
        pager.promote_pending_free()
        assert pager.allocate(PAGE_DATA).pid in set(pids)
        pager.close()

    def test_out_of_range_page_raises(self, pager):
        with pytest.raises(DatabaseError, match="out of range"):
            pager.get(999)


class TestPagedHeap:
    def test_dict_protocol(self, pager):
        heap = PagedHeap(pager)
        heap[1] = [1, "one"]
        heap[2] = [2, "two"]
        heap[5] = [5, "five"]
        assert len(heap) == 3
        assert 2 in heap and 3 not in heap
        assert heap[1] == [1, "one"]
        assert heap.get(5) == [5, "five"]
        assert heap.get(99) is None
        with pytest.raises(KeyError):
            heap[99]
        assert list(heap) == [1, 2, 5]
        assert list(heap.keys()) == [1, 2, 5]
        assert list(heap.values()) == [[1, "one"], [2, "two"], [5, "five"]]
        assert dict(heap.items())[2] == [2, "two"]
        del heap[2]
        assert heap.pop(5) == [5, "five"]
        assert heap.pop(5, "gone") == "gone"
        with pytest.raises(KeyError):
            del heap[2]
        with pytest.raises(KeyError):
            heap.pop(17)
        assert list(heap.items()) == [(1, [1, "one"])]

    def test_read_never_sees_a_slot_a_racing_write_emptied(self, pager):
        """A read looks the rowid up and decodes its slot in one pager-lock
        hold, so a writer relocating the row cannot run in between and
        leave the reader holding an emptied slot."""
        heap = PagedHeap(pager)
        for i in range(400):  # rowid 1 sits on the first page, far from the tail
            heap[i] = [i, f"row-{i}"]
        writer = None

        class RacingDirectory(dict):
            def get(self, rowid, default=None):
                nonlocal writer
                loc = super().get(rowid, default)
                if writer is None:
                    writer = threading.Thread(
                        target=heap.__setitem__, args=(1, [1, "moved"]))
                    writer.start()
                    writer.join(timeout=0.2)  # finishes only if unblocked
                return loc

        heap.directory = RacingDirectory(heap.directory)
        assert heap.get(1) == [1, "row-1"]
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert heap[1] == [1, "moved"]

    def test_update_preserves_insertion_order(self, pager):
        heap = PagedHeap(pager)
        for i in range(5):
            heap[i] = [i]
        heap[2] = [200]  # overwrite must not move the key to the end
        assert list(heap) == [0, 1, 2, 3, 4]
        assert heap[2] == [200]

    def test_load_rebuilds_directory(self, tmp_path):
        path = tmp_path / "heap.db"
        pager = Pager(path, pool_pages=8)
        heap = PagedHeap(pager)
        for i in range(1, 400):
            heap[i] = [i, f"row-{i}", i * 0.5]
        del heap[7]
        heap[3] = [3, "updated", None]
        first = heap.first_page
        pager.flush()
        pager.write_header()
        pager.close()

        pager = Pager(path, pool_pages=8)
        reloaded = PagedHeap(pager, first)
        reachable = reloaded.load()
        assert len(reloaded) == 398
        assert 7 not in reloaded
        assert reloaded[3] == [3, "updated", None]
        assert reloaded[399] == [399, "row-399", 199.5]
        assert reloaded.max_rowid() == 399
        assert reachable  # the data chain is reported for free-page math
        pager.close()

    def test_overflow_rows_round_trip(self, tmp_path):
        path = tmp_path / "big.db"
        pager = Pager(path, pool_pages=8)
        heap = PagedHeap(pager)
        big = "v" * (3 * PAGE_SIZE)  # far larger than one page
        heap[1] = [big, 7]
        heap[2] = ["small", 8]
        assert heap[1] == [big, 7]
        heap[1] = ["replaced", 9]  # old overflow chain is freed
        assert heap[1] == ["replaced", 9]
        heap[3] = [big + "!", 10]
        first = heap.first_page
        pager.flush()
        pager.write_header()
        pager.close()

        pager = Pager(path, pool_pages=8)
        reloaded = PagedHeap(pager, first)
        reloaded.load()
        assert reloaded[3] == [big + "!", 10]
        assert reloaded[1] == ["replaced", 9]
        pager.close()

    def test_release_frees_every_page(self, pager):
        heap = PagedHeap(pager)
        big = "o" * (2 * PAGE_SIZE)
        for i in range(50):
            heap[i] = [i, big if i % 10 == 0 else "s"]
        allocated = pager.page_count
        heap.release()
        pager.promote_pending_free()
        assert len(heap) == 0
        # every owned page is reusable: fresh allocations don't grow the file
        for _ in range(allocated - 2):
            pager.allocate(PAGE_DATA)
        assert pager.page_count == allocated
