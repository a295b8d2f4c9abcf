"""``remote_sql_durable``: prepared statements over TCP against a durable file.

``serve_minidb.py`` runs in a child process: a file database whose buffer
pool (128 pages, 0.5 MB) is about a tenth of the ``orders`` table (40k rows
x ~130 B), ``fsync="commit"``, ``MiniDBServer`` on an ephemeral port.  This
process holds two connections, each a closed loop of prepared statements:
200 pings, then 60% point reads by id (hash index), 10% range aggregates
over 1% of ``amount`` (B+tree), 30% single-row autocommit ``UPDATE``s, on a
disjoint half of the ids per client so that every read can be checked
against a client-side shadow.  Afterwards the server is killed with
SIGKILL and the file reopened: every acknowledged write must be there.

This is the only workload that runs ``net``, MVCC sessions, the pager
(larger than its cache) and the WAL.  Killing the process keeps the
operating system's page cache, so this checks process-crash durability
only; power loss needs the fault-injection shim of the ROADMAP.
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from e2e_common import (
    HERE, OUT_DIR, WALL_CLOCK, OpLog, Phase, median, ms, ratio, untraced_call,
)
from e2e_trace import END, NAME, START, Tracer, cold_prepare_ms, rows_examined_per_row
from serve_minidb import (
    AMOUNT_MAX,
    RANGE_SQL,
    READ_SQL,
    STATUSES,
    WRITE_SQL,
    make_rows,
)

from repro.minidb import connect
from repro.minidb.net import client as net_client

ROWS = 40_000
POOL_PAGES = 128
SMOKE_ROWS = 2_000
SMOKE_POOL_PAGES = 8
CLIENTS = 2                # = nproc of the recording box; closed loop, no think time
PINGS = 200
READ_SHARE, RANGE_SHARE = 0.6, 0.1      # the rest are writes
RANGE_WIDTH = AMOUNT_MAX * 0.01
ROUND_OPS = 1000           # per-layer counts are reported per 1000 operations
# Throughput halves over the first seconds of writes, while dirty pages fill
# the buffer pool up to their steady share; that stretch is run but not timed.
RAMP_SECONDS = 2.0


class _Client:
    """One connection with its prepared statements and its half of the ids."""

    def __init__(self, index: int, port: int, rows: int, seed: int):
        self.index = index
        self.conn = net_client.connect("127.0.0.1", port, timeout=10.0)
        self.read = self.conn.prepare(READ_SQL)
        self.range = self.conn.prepare(RANGE_SQL)
        self.write = self.conn.prepare(WRITE_SQL)
        half = rows // CLIENTS
        self.ids = range(index * half, (index + 1) * half)
        self.rng = random.Random(seed * 7919 + index)
        self.user_bytes_written = 0
        self.last_range = (0.0, RANGE_WIDTH)


class RemoteWorkload:
    # two processes, sockets and fsync: only wall-clock time means anything;
    # both processes read the same CLOCK_MONOTONIC, so their spans line up
    clock = WALL_CLOCK
    gate = {"setup_s": "setup_s", "ops_per_s": "ops_per_s",
            "query_ms_p50": "range_ms_p50", "edit_ms_p50": "write_ms_p50"}
    entry_layer = {"read_ms_p50": "minidb.net", "range_ms_p50": "minidb.net",
                   "write_ms_p50": "minidb.net", "reopen_s": "minidb"}

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.rows = SMOKE_ROWS if smoke else ROWS
        self.pool_pages = SMOKE_POOL_PAGES if smoke else POOL_PAGES
        self.pings = 20 if smoke else PINGS
        self.ramp_s = 0.1 if smoke else RAMP_SECONDS
        self.dir = None            # scratch directory of this set-up
        self.child = None
        self.clients: list[_Client] = []
        self.db = None
        self.hello: dict = {}
        self.generate_s = 0.0
        self.reopen_s = 0.0

    # -- set-up ------------------------------------------------------------------

    def setup(self) -> None:
        """Child loads, indexes, checkpoints and serves; clients connect,
        prepare and warm up."""
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="remote-", dir=OUT_DIR))
        self.path = self.dir / "orders.db"
        self.child = subprocess.Popen(
            [sys.executable, str(HERE / "serve_minidb.py"),
             "--path", str(self.path), "--rows", str(self.rows),
             "--seed", str(self.seed), "--pool-pages", str(self.pool_pages)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        start = time.perf_counter()
        self.shadow = {row[0]: (row[2], row[3])
                       for row in make_rows(self.seed, self.rows)}
        self.generate_s = time.perf_counter() - start
        line = self.child.stdout.readline()
        if not line:
            raise RuntimeError("serve_minidb.py exited before announcing its port")
        self.hello = json.loads(line)
        self.clients = [
            _Client(index, self.hello["port"], self.rows, self.seed)
            for index in range(CLIENTS)
        ]
        warm = OpLog(WALL_CLOCK)
        for client in self.clients:
            for _ in range(20):
                client.conn.ping()
                self._one_op(client, warm, untraced_call)
        if warm.problems:
            raise RuntimeError(f"warm-up failed: {warm.problems[0]}")

    def _command(self, text: str) -> None:
        self.child.stdin.write(text + "\n")
        self.child.stdin.flush()
        reply = self.child.stdout.readline().strip()
        if reply != "ok":
            raise RuntimeError(f"serve_minidb.py answered {reply!r} to {text!r}")

    def _dump(self, label: str) -> dict:
        path = self.dir / f"stats-{label}.json"
        self._command(f"dump {path}")
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def _kill_child(self) -> None:
        if self.child is not None and self.child.poll() is None:
            self.child.send_signal(signal.SIGKILL)
        if self.child is not None:
            self.child.wait()
            self.child.stdin.close()
            self.child.stdout.close()

    def close(self) -> None:
        self._kill_child()
        for client in self.clients:
            client.conn.close()
        if self.db is not None:
            self.db.close()
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)

    def notes(self) -> list[str]:
        return [
            f"orders: {self.rows} rows, {self.hello['user_bytes']} user bytes; "
            f"buffer pool {self.hello['pool_pages']} pages x 4 KB; "
            f"{CLIENTS} closed-loop clients, no think time",
            f"flush policy fsync={self.hello['fsync']!r}: every acknowledged "
            f"UPDATE was fsynced to the WAL first",
            "durability checked against SIGKILL (process crash); power loss "
            "is out of scope (needs the ROADMAP fault-injection shim)",
        ]

    # -- the measured loop ---------------------------------------------------------

    def measure(self, seconds: float, traced: bool) -> Phase:
        if traced:
            self._command("trace")
        logs = [OpLog(WALL_CLOCK, Tracer(WALL_CLOCK) if traced else None) for _ in self.clients]
        # pings probe the wire; they are timed but are not workload operations
        probes = [OpLog(WALL_CLOCK, log.tracer) for log in logs]
        # one request per connection, in client order: the server lists its
        # connections by first request, which is how spans are paired up
        for client, probe in zip(self.clients, probes):
            self._ping(client, probe)
        before = self._dump("before")
        barrier = threading.Barrier(len(self.clients) + 1)
        ends = [0.0] * len(self.clients)
        crashes: list = []
        ramp_s, self.ramp_s = self.ramp_s, 0.0      # only the first stretch ramps
        ramp_log = [OpLog(WALL_CLOCK) for _ in self.clients]  # checked, not timed

        def loop(client: _Client, log: OpLog, probe: OpLog) -> None:
            call = log.tracer.call if log.tracer is not None else untraced_call
            try:
                for _ in range(self.pings):
                    self._ping(client, probe)
                ramp_end = time.perf_counter() + ramp_s
                while time.perf_counter() < ramp_end:
                    self._one_op(client, ramp_log[client.index], untraced_call)
                barrier.wait()
                deadline = time.perf_counter() + seconds
                while time.perf_counter() < deadline:
                    self._one_op(client, log, call)
            except Exception as exc:    # re-raised in the main thread below
                crashes.append(exc)
                barrier.abort()
            ends[client.index] = time.perf_counter()

        threads = [threading.Thread(target=loop, args=each)
                   for each in zip(self.clients, logs, probes)]
        for thread in threads:
            thread.start()
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            pass
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        if crashes:
            raise crashes[0]
        after = self._dump("after")

        phase = Phase(ops=OpLog(WALL_CLOCK))
        pings = OpLog(WALL_CLOCK)
        for log, probe in zip(logs, probes):
            phase.ops.absorb(log)
            pings.absorb(probe)
        phase.ops.problems.extend(pings.problems)
        for log in ramp_log:
            phase.ops.problems.extend(log.problems)
        phase.timed_s = max(ends) - start
        phase.rounds = phase.ops.attempted / ROUND_OPS
        phase.last = {"before": before, "after": after, "pings": pings,
                      "tracers": [log.tracer for log in logs]}
        return phase

    @staticmethod
    def _ping(client: _Client, log: OpLog) -> None:
        call = log.tracer.call if log.tracer is not None else untraced_call
        log.run("ping", call, "minidb.net.ping", client.conn.ping)

    def _one_op(self, client: _Client, log: OpLog, call) -> None:
        """One statement of the 60/10/30 mix, checked against the shadow."""
        rng = client.rng
        draw = rng.random()
        if draw < READ_SHARE:
            key = rng.choice(client.ids)
            result = log.run("read", call, "minidb.net.execute",
                             client.read.execute, (key,))
            if result is not None:
                log.check(result.rows == [self.shadow[key]],
                          f"read of id {key} returned {result.rows}, "
                          f"shadow holds {self.shadow[key]}")
        elif draw < READ_SHARE + RANGE_SHARE:
            low = rng.uniform(0.0, AMOUNT_MAX - RANGE_WIDTH)
            client.last_range = (low, low + RANGE_WIDTH)
            result = log.run("range", call, "minidb.net.execute",
                             client.range.execute, client.last_range)
            if result is not None:
                log.check(
                    bool(result.rows) and all(
                        status in STATUSES and count > 0
                        for status, count, _total in result.rows),
                    f"range aggregate returned {result.rows}")
        else:
            key = rng.choice(client.ids)
            value = (round(rng.uniform(0.0, AMOUNT_MAX), 2), rng.choice(STATUSES))
            result = log.run("write", call, "minidb.net.execute",
                             client.write.execute, (*value, key))
            if result is not None:
                # acknowledged: from here on it must survive a crash
                self.shadow[key] = value
                client.user_bytes_written += 8 + len(value[1])
                log.check(result.rowcount == 1,
                          f"update of id {key} touched {result.rowcount} rows")

    # -- correctness ---------------------------------------------------------------

    def verify(self, phase: Phase) -> None:
        """SIGKILL the server, reopen the file, and look for every
        acknowledged write."""
        self._kill_child()
        start = time.perf_counter()
        self.db = connect(str(self.path), pool_pages=self.pool_pages)
        first = self.db.execute(READ_SQL, (0,)).rows
        self.reopen_s = time.perf_counter() - start
        ops = phase.ops
        ops.check(first == [self.shadow[0]], f"first read after reopen: {first}")
        stored = {row[0]: (row[1], row[2]) for row in
                  self.db.execute("SELECT id, amount, status FROM orders").rows}
        lost = [key for key, value in self.shadow.items()
                if stored.get(key) != value]
        ops.check(len(stored) == self.rows,
                  f"{len(stored)} rows after reopen, loaded {self.rows}")
        ops.check(not lost, f"{len(lost)} acknowledged rows differ after the "
                            f"kill, e.g. id {lost[:3]}")

    # -- metrics ---------------------------------------------------------------------

    def e2e_metrics(self, phase: Phase, setup_s: float) -> dict:
        ops = phase.ops
        return {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (phase.ops_per_s, "1/s"),
            "read_ms_p50": (ops.p("read", 0.5), "ms"),
            "range_ms_p50": (ops.p("range", 0.5), "ms"),
            "write_ms_p50": (ops.p("write", 0.5), "ms"),
            "write_ms_p90": (ops.p("write", 0.9), "ms"),
            "reopen_s": (self.reopen_s, "s"),
        }

    def layer_metrics(self, phase: Phase) -> dict:
        """Per-layer numbers of the traced stretch; counts per 1000 operations."""
        ops, rounds = phase.ops, phase.rounds
        before, after = phase.last["before"], phase.last["after"]

        def delta(*keys) -> float:
            low, high = before, after
            for key in keys:
                low, high = low[key], high[key]
            return high - low

        hits = delta("buffer_pool_stats", "hits")
        misses = delta("buffer_pool_stats", "misses")
        lookups = delta("plan_cache", "hits") + delta("plan_cache", "misses")
        dispatched = [record for spans in after["connections"] for record in spans]
        statements = [r[2] - r[1] for r in dispatched if r[0] != "ping"]
        user_written = sum(c.user_bytes_written for c in self.clients)
        seen = {READ_SQL: (0,), RANGE_SQL: self.clients[0].last_range}
        ping_ms = phase.last["pings"].p("ping", 0.5)
        return {
            "datasets.generate_s": self.generate_s,
            "minidb.statements": len(statements) / rounds,
            "minidb.busy_s": sum(statements) / rounds,
            "minidb.prepare_ms_p50": cold_prepare_ms([READ_SQL, RANGE_SQL, WRITE_SQL]),
            "minidb.execute_ms_p50": ms(median(statements)),
            "minidb.plan_cache.hit_rate": ratio(delta("plan_cache", "hits"), lookups),
            "minidb.rows_examined_per_row": rows_examined_per_row(self.db, seen),
            "minidb.net.ping_ms_p50": ping_ms,
            "minidb.net.requests_served":
                delta("server_stats", "requests_served") / rounds,
            "minidb.net.wire_share": ratio(ping_ms, ops.p("read", 0.5)),
            "minidb.net.read_ms_p90": ops.p("read", 0.9),
            "minidb.net.write_ms_p90": ops.p("write", 0.9),
            "minidb.pager.hit_rate": ratio(hits, hits + misses),
            "minidb.pager.evictions":
                delta("buffer_pool_stats", "evictions") / rounds,
            "minidb.pager.pages_written":
                delta("buffer_pool_stats", "pages_written") / rounds,
            "minidb.wal.fsyncs": delta("wal_fsync_count") / rounds,
            "minidb.wal.fsyncs_per_commit":
                ratio(delta("wal_fsync_count"), ops.n("write")),
            "minidb.wal.bytes_per_user_byte":
                ratio(delta("wal_bytes_written"), user_written),
            "minidb.file_bytes_per_user_byte": ratio(
                after["db_file_bytes"] + after["wal_file_bytes"],
                self.hello["user_bytes"]),
        }

    def spans(self, phase: Phase) -> list:
        """Client spans with the server's dispatch (and WAL sync) spans hung
        under the request that caused them.  Both processes read the same
        monotonic clock; pairing is by order within each connection."""
        merged: list = []
        served = phase.last["after"]["connections"]
        for tracer, records in zip(phase.last["tracers"], served):
            offset, op_offset = len(merged), (merged[-1][4] if merged else 0)
            calls = [i for i, s in enumerate(tracer.spans)
                     if s[NAME].startswith("minidb.net.")]
            for span in tracer.spans:
                parent = span[3] + offset if span[3] >= 0 else -1
                merged.append([span[0], span[1], span[2], parent,
                               span[4] + op_offset])
            if len(calls) != len(records):
                print(f"  note: {len(records)} server spans for {len(calls)} "
                      f"client requests; server side left out of the table")
                continue
            for index, (_kind, begin, end, sync_s) in zip(calls, records):
                call = merged[index + offset]
                begin, end = max(begin, call[START]), min(end, call[END])
                merged.append(["minidb.dispatch", begin, end,
                               index + offset, call[4]])
                if sync_s:
                    merged.append(["minidb.wal.sync", max(begin, end - sync_s),
                                   end, len(merged) - 1, call[4]])
        return merged
