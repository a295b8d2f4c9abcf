"""A8 — MVCC concurrency: snapshot-read overhead and readers-vs-writer.

ISSUE 5's workload is many concurrent readers (profile panes, stats
probes, chart backends) racing a writer (repair transactions).  This
benchmark pins down what the MVCC layer costs and buys:

* one shape per index walk — ``point`` (composite prefix walk, LIMIT 5),
  ``scan`` (range aggregate), ``range`` (B+tree range scan returning its
  rows), ``order_limit`` (``ORDER BY ... DESC LIMIT`` leaf walk) and
  ``merge_join`` — each timed on the quiescent fast path (no snapshot,
  live row reads) versus through a connection's registered snapshot
  (version-chain resolution, key re-checks, batched index walks).  These
  are the tracked ``*_seconds`` hot paths the regression gate guards: the
  fast path must not regress, and the snapshot path bounds the
  per-statement MVCC tax of every walk.
* ``readers_vs_writer`` — M reader threads streaming aggregate/point
  queries while one writer commits update transactions.  Reported as
  throughput (not gated: thread scheduling is noisy) to track that
  readers are never blocked by the writer's open transactions.

Numbers land in ``benchmarks/artifacts/concurrency.json``.
"""

import os
import threading
import time

from repro.bench import print_generic, write_json_artifact
from repro.minidb import Database

N_ROWS = int(os.environ.get("REPRO_CONC_ROWS", "20000"))
N_CATEGORIES = 40
POINT_QUERY = "SELECT val FROM t WHERE cat = ? AND val >= ? ORDER BY val LIMIT 5"
SCAN_QUERY = "SELECT COUNT(*), SUM(val) FROM t WHERE val >= ?"
# shape -> (query, params, plan operator it must use, timed calls)
SHAPES = {
    "point": (POINT_QUERY, ("c7", 0.0), "IndexOrderScan(t.(cat, val)", 200),
    "scan": (SCAN_QUERY, (500000.0,), "IndexRangeScan(t.val", 20),
    "range": ("SELECT val FROM t WHERE val BETWEEN ? AND ?",
              (100000.0, 150000.0), "IndexRangeScan(t.val", 50),
    "order_limit": ("SELECT val FROM t ORDER BY val DESC LIMIT 20", (),
                    "IndexOrderScan(t.val via idx_val, DESC)", 200),
    "merge_join": ("SELECT COUNT(*) FROM t JOIN d ON t.val = d.val", (),
                   "MergeJoin(d, key=val)", 10),
}
DURATION = float(os.environ.get("REPRO_CONC_SECONDS", "0.6"))
N_READER_THREADS = 4


def _populate(db: Database) -> None:
    db.execute("CREATE TABLE t (cat TEXT, val REAL)")
    db.insert_rows(
        "t",
        [
            (f"c{i % N_CATEGORIES}", float((i * 7919) % 999983))
            for i in range(N_ROWS)
        ],
    )
    # a quarter-size build side sharing t's values: the merge join's input
    db.execute("CREATE TABLE d (val REAL, label TEXT)")
    db.insert_rows(
        "d",
        [
            (float((i * 7919) % 999983), f"l{i}")
            for i in range(0, N_ROWS, 4)
        ],
    )
    db.execute("CREATE INDEX idx_cat_val ON t (cat, val)")
    db.execute("CREATE INDEX idx_val ON t (val)")
    db.execute("CREATE INDEX idx_d_val ON d (val)")
    db.analyze()


def _time_per_call(fn, repeat: int) -> float:
    fn()  # warm plan caches
    started = time.perf_counter()
    for _ in range(repeat):
        fn()
    return (time.perf_counter() - started) / repeat


def _measure_overhead(db: Database) -> dict:
    """Fast path vs snapshot path for every index-walk shape."""
    assert not db.mvcc_engaged(), "overhead baseline needs a quiescent db"
    prepared = {}
    fast = {}
    for shape, (sql, params, operator, repeat) in SHAPES.items():
        assert operator in db.explain(sql, params), (shape, db.explain(sql, params))
        stmt = prepared[shape] = db.prepare(sql)
        fast[shape] = _time_per_call(lambda: stmt.execute(params).rows, repeat)

    conn = db.connect()  # engages MVCC: statements read through snapshots
    session = conn._session
    out = {}
    for shape, (_sql, params, _operator, repeat) in SHAPES.items():
        stmt = prepared[shape]
        snapshot = _time_per_call(
            lambda: stmt.execute(params, session=session).rows, repeat
        )
        out[shape] = {
            "fastpath_seconds": fast[shape],
            "snapshot_seconds": snapshot,
            "overhead_ratio": snapshot / fast[shape],
        }
    conn.close()
    db.maybe_gc()
    return out


def _measure_readers_vs_writer(db: Database) -> dict:
    """Throughput with concurrent committed writes under the readers."""
    stop = threading.Event()
    read_counts = [0] * N_READER_THREADS
    write_count = [0]
    errors: list = []
    barrier = threading.Barrier(N_READER_THREADS + 2)

    def reader(slot: int) -> None:
        conn = db.connect()
        try:
            barrier.wait()
            n = 0
            while not stop.is_set():
                rows = conn.execute(POINT_QUERY, (f"c{n % N_CATEGORIES}", 0.0)).rows
                assert len(rows) == 5
                conn.execute("SELECT COUNT(*) FROM t").scalar()
                n += 1
            read_counts[slot] = n
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
        finally:
            conn.close()

    def writer() -> None:
        conn = db.connect()
        try:
            barrier.wait()
            n = 0
            while not stop.is_set():
                conn.execute("BEGIN")
                conn.execute(
                    "UPDATE t SET val = val + 1 WHERE cat = ?",
                    (f"c{n % N_CATEGORIES}",),
                )
                conn.commit()
                n += 1
            write_count[0] = n
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=reader, args=(i,), name=f"bench-reader-{i}")
        for i in range(N_READER_THREADS)
    ] + [threading.Thread(target=writer, name="bench-writer")]
    db.start_background_gc(interval=0.05)
    try:
        for thread in threads:
            thread.start()
        barrier.wait()
        time.sleep(DURATION)
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        db.stop_background_gc()
    if errors:
        raise errors[0]
    db.vacuum()
    total_reads = sum(read_counts) * 2  # two statements per loop
    return {
        "n_reader_threads": N_READER_THREADS,
        "duration_target": DURATION,
        "reads_per_sec": total_reads / DURATION,
        "writes_per_sec": write_count[0] / DURATION,
        "read_statements": total_reads,
        "committed_write_txns": write_count[0],
    }


def test_concurrency_benchmark():
    db = Database()
    _populate(db)
    overhead = _measure_overhead(db)
    mixed = _measure_readers_vs_writer(db)
    payload = {
        "n_rows": N_ROWS,
        "n_categories": N_CATEGORIES,
        "point_query": POINT_QUERY,
        "scan_query": SCAN_QUERY,
        **overhead,
        "readers_vs_writer": mixed,
    }

    # sanity: the snapshot tax on the interactive point shape stays small
    assert overhead["point"]["overhead_ratio"] < 10, overhead["point"]
    # readers made progress while the writer committed transactions
    assert mixed["read_statements"] > 0 and mixed["committed_write_txns"] > 0

    rows = [
        [
            shape,
            f"{payload[shape]['fastpath_seconds'] * 1e6:.1f} us",
            f"{payload[shape]['snapshot_seconds'] * 1e6:.1f} us",
            f"{payload[shape]['overhead_ratio']:.2f}x",
        ]
        for shape in SHAPES
    ]
    rows.append([
        "readers-vs-writer",
        f"{mixed['reads_per_sec']:.0f} reads/s",
        f"{mixed['writes_per_sec']:.0f} txns/s",
        f"{N_READER_THREADS} readers + 1 writer",
    ])
    print_generic(
        f"A8 — MVCC concurrency ({N_ROWS} rows)",
        ["Shape", "Fast path", "Snapshot", "Overhead"],
        rows,
    )
    path = write_json_artifact("concurrency", payload)
    print(f"artifact: {path}")
