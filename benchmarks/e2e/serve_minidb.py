#!/usr/bin/env python3
"""Child process of ``remote_sql_durable``: one durable minidb behind TCP.

    serve_minidb.py --path P --rows N --seed S --pool-pages K

Creates a file-backed database (``fsync="commit"``: every autocommit
statement is fsynced to the WAL before it is acknowledged), loads the
``orders`` table, builds a hash index on ``id`` and a B+tree on ``amount``,
checkpoints, starts a ``MiniDBServer`` on an ephemeral port and prints one
JSON line with the port.  It then obeys one-word commands on stdin:

    dump <file>   write counters (buffer pool, WAL, files, server) as JSON
    trace         start recording a span per dispatched request

and exits when stdin closes.  The runner never asks it to close or
checkpoint: it is killed with SIGKILL so that reopening the file is a
process-crash recovery.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import threading
import time

import e2e_common  # noqa: F401 - puts src/ on sys.path

from repro.minidb import connect
from repro.minidb.net import MiniDBServer

SCHEMA = ("CREATE TABLE orders (id INTEGER, customer INTEGER, "
          "amount DOUBLE PRECISION, status TEXT, note TEXT)")
READ_SQL = "SELECT amount, status FROM orders WHERE id = ?"
RANGE_SQL = ("SELECT status, COUNT(*), SUM(amount) FROM orders "
             "WHERE amount >= ? AND amount < ? GROUP BY status")
WRITE_SQL = "UPDATE orders SET amount = ?, status = ? WHERE id = ?"
KIND_OF_SQL = {READ_SQL: "read", RANGE_SQL: "range", WRITE_SQL: "write"}
STATUSES = ("new", "paid", "shipped", "void")
AMOUNT_MAX = 10_000.0
FSYNC = "commit"


def make_rows(seed: int, n: int) -> list[tuple]:
    """The ``orders`` rows for ``seed``: about 130 bytes of user data each."""
    rng = random.Random(seed)
    return [
        (i, rng.randrange(5000), round(rng.uniform(0, AMOUNT_MAX), 2),
         rng.choice(STATUSES), f"note-{rng.randrange(10 ** 9):095d}")
        for i in range(n)
    ]


def user_bytes(row: tuple) -> int:
    """Bytes of user data in one row (8 per number, 1 per character)."""
    return sum(len(v) if isinstance(v, str) else 8 for v in row)


class DispatchTrace:
    """Spans of what the server did per request, recorded from outside it."""

    def __init__(self, server: MiniDBServer, db):
        self.lock = threading.Lock()
        self.local = threading.local()
        self.connections: list[list] = []   # per connection, in first-request order
        self.wal_bytes = 0
        dispatch = server.dispatch
        sync = db.wal.sync
        reset = db.wal.reset_after_checkpoint
        wal_path = str(db.path) + "-wal"

        def traced_dispatch(client, frame):
            spans = getattr(self.local, "spans", None)
            if spans is None:
                spans = self.local.spans = []
                with self.lock:
                    self.connections.append(spans)
            kind = frame.get("op")
            if kind == "execute_stmt":
                statement = client.state.statements.get(frame.get("stmt"))
                kind = KIND_OF_SQL.get(getattr(statement, "sql", None), kind)
            record = self.local.record = [kind, time.perf_counter(), 0.0, 0.0]
            try:
                return dispatch(client, frame)
            finally:
                record[2] = time.perf_counter()
                spans.append(record)

        def traced_sync():
            start = time.perf_counter()
            try:
                return sync()
            finally:
                record = getattr(self.local, "record", None)
                if record is not None:
                    record[3] += time.perf_counter() - start

        def counting_reset():
            self.wal_bytes += os.path.getsize(wal_path)
            return reset()

        server.dispatch = traced_dispatch
        db.wal.sync = traced_sync
        db.wal.reset_after_checkpoint = counting_reset


def dump(path: str, db, server: MiniDBServer, trace) -> None:
    db_file = str(db.path)
    stats = {
        "buffer_pool_stats": db.pragma("buffer_pool_stats"),
        "wal_fsync_count": db.wal.fsync_count,
        "wal_size_bytes": db.wal.size_bytes(),
        "db_file_bytes": os.path.getsize(db_file),
        "wal_file_bytes": os.path.getsize(db_file + "-wal"),
        "server_stats": dict(server.stats),
        "plan_cache": db.plan_cache.info(),
        "fsync": db.pragma("fsync"),
    }
    if trace is not None:
        stats["wal_bytes_written"] = (
            trace.wal_bytes + os.path.getsize(db_file + "-wal"))
        with trace.lock:
            stats["connections"] = [list(spans) for spans in trace.connections]
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(stats, handle)
    os.replace(path + ".tmp", path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--path", required=True)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pool-pages", type=int, required=True)
    args = parser.parse_args()

    db = connect(args.path, pool_pages=args.pool_pages, fsync=FSYNC)
    db.execute(SCHEMA)
    rows = make_rows(args.seed, args.rows)
    db.insert_rows("orders", rows)
    db.execute("CREATE INDEX idx_orders_id ON orders(id) USING hash")
    db.execute("CREATE INDEX idx_orders_amount ON orders(amount) USING btree")
    db.analyze()
    db.checkpoint()
    server = MiniDBServer(db, port=0)
    _host, port = server.start()
    print(json.dumps({
        "port": port, "rows": args.rows, "fsync": db.pragma("fsync"),
        "pool_pages": db.pragma("pool_pages"),
        "user_bytes": sum(user_bytes(row) for row in rows),
    }), flush=True)

    trace = None
    for line in sys.stdin:
        command, _, argument = line.strip().partition(" ")
        if command == "dump":
            dump(argument, db, server, trace)
        elif command == "trace" and trace is None:
            trace = DispatchTrace(server, db)
        else:
            print(f"unknown command {line!r}", flush=True)
            continue
        print("ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
