"""Tests for the network layer: framing, auth, admission, lifecycle.

The happy path (the full engine battery over the socket transport) lives
in ``test_net_battery.py``; this module covers everything that can go
wrong on the wire — malformed and oversized frames, bad credentials,
unauthenticated requests, half-open connections against the idle clock,
the connection/statement/cursor admission caps, serialization conflicts
surfaced as retryable wire errors, and the teardown paths that must
release snapshots (clean bye, abrupt drop, graceful drain,
``Database.close`` with leaked connections).
"""

import json
import socket
import struct
import threading
import time

import pytest

from repro.errors import (
    AdmissionError,
    AuthenticationError,
    DatabaseError,
    IntegrityError,
    NetworkError,
    ProtocolError,
    SerializationError,
    SQLSyntaxError,
)
from repro.minidb import connect
from repro.minidb.net import CredentialStore, MiniDBServer
from repro.minidb.net import client as net_client
from repro.minidb.net.framing import encode_frame, recv_frame, send_frame
from repro.minidb.net import wire


# -- plumbing -----------------------------------------------------------------


@pytest.fixture
def db():
    handle = connect()
    handle.execute("CREATE TABLE t (id INTEGER, v TEXT)")
    handle.executemany("INSERT INTO t VALUES (?, ?)",
                       [(i, f"v{i}") for i in range(10)])
    yield handle
    handle.close()


def serve(db, **kwargs):
    """A started MiniDBServer; callers use it as a context manager."""
    server = MiniDBServer(db, port=0, **kwargs)
    server.start()
    return server


def dial(server, **kwargs):
    host, port = server.address
    return net_client.connect(host, port, **kwargs)


def raw_dial(server):
    """A plain socket to the server, no handshake."""
    sock = socket.create_connection(server.address, timeout=5.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def hello(sock, user=None, password=None):
    send_frame(sock, {"op": "hello", "protocol": wire.PROTOCOL_VERSION,
                      "user": user, "password": password})
    return recv_frame(sock)


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.01)


# -- framing ------------------------------------------------------------------


class TestFraming:
    def test_round_trip(self, db):
        with serve(db) as server, dial(server) as conn:
            assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 10
            assert conn.server_info["user"] == "anonymous"

    def test_non_json_body_rejected(self, db):
        with serve(db) as server:
            sock = raw_dial(server)
            try:
                body = b"\x00\xffnot json"
                sock.sendall(struct.pack(">I", len(body)) + body)
                reply = recv_frame(sock)
                assert reply["ok"] is False
                assert reply["error"]["code"] == "protocol"
                # after a framing error the server hangs up
                assert recv_frame(sock) is None
            finally:
                sock.close()

    def test_non_object_body_rejected(self, db):
        with serve(db) as server:
            sock = raw_dial(server)
            try:
                body = json.dumps([1, 2, 3]).encode()
                sock.sendall(struct.pack(">I", len(body)) + body)
                reply = recv_frame(sock)
                assert reply["ok"] is False
                assert reply["error"]["code"] == "protocol"
            finally:
                sock.close()

    def test_oversized_frame_rejected_before_buffering(self, db):
        with serve(db, max_frame=1024) as server:
            sock = raw_dial(server)
            try:
                # announce a 1GB frame; the server must refuse on the
                # prefix alone, without waiting for (or buffering) a body
                sock.sendall(struct.pack(">I", 1 << 30))
                reply = recv_frame(sock)
                assert reply["ok"] is False
                assert reply["error"]["code"] == "protocol"
                assert "1024" in reply["error"]["message"]
            finally:
                sock.close()

    def test_mid_frame_eof_tears_down_session(self, db):
        with serve(db) as server:
            sock = raw_dial(server)
            try:
                assert hello(sock)["ok"] is True
                wait_until(lambda: server.client_count == 1)
                # half a frame, then vanish
                sock.sendall(struct.pack(">I", 100) + b"partial")
            finally:
                sock.close()
            wait_until(lambda: server.client_count == 0)

    def test_unknown_op_keeps_session_alive(self, db):
        with serve(db) as server, dial(server) as conn:
            with pytest.raises(ProtocolError, match="unknown op"):
                conn._exchange({"op": "no-such-op"})


# -- auth ---------------------------------------------------------------------


class TestAuth:
    @pytest.fixture
    def auth(self, tmp_path):
        return CredentialStore.from_passwords(
            {"ada": "s3cret", "grace": "hopper"},
            path=tmp_path / "users.json", iterations=1000)

    def test_good_credentials(self, db, auth):
        with serve(db, auth=auth) as server:
            with dial(server, user="ada", password="s3cret") as conn:
                assert conn.server_info["user"] == "ada"
                assert conn.execute("SELECT 1").scalar() == 1

    def test_wrong_password_rejected_generically(self, db, auth):
        with serve(db, auth=auth) as server:
            with pytest.raises(AuthenticationError,
                               match="invalid user name or password"):
                dial(server, user="ada", password="wrong")
            assert server.stats["auth_failures"] == 1

    def test_unknown_user_same_message(self, db, auth):
        """Unknown user and wrong password are indistinguishable."""
        with serve(db, auth=auth) as server:
            with pytest.raises(AuthenticationError,
                               match="invalid user name or password"):
                dial(server, user="nobody", password="s3cret")

    def test_request_before_hello_rejected(self, db, auth):
        with serve(db, auth=auth) as server:
            sock = raw_dial(server)
            try:
                send_frame(sock, {"op": "execute", "sql": "SELECT 1"})
                reply = recv_frame(sock)
                assert reply["ok"] is False
                assert reply["error"]["code"] == "auth"
                assert recv_frame(sock) is None  # and the server hangs up
            finally:
                sock.close()

    def test_wrong_protocol_version_rejected(self, db):
        with serve(db) as server:
            sock = raw_dial(server)
            try:
                send_frame(sock, {"op": "hello", "protocol": 999})
                reply = recv_frame(sock)
                assert reply["ok"] is False
                assert reply["error"]["code"] == "protocol"
            finally:
                sock.close()

    def test_store_round_trip_and_constant_time_surface(self, tmp_path):
        store = CredentialStore.from_passwords(
            {"ada": "pw"}, path=tmp_path / "u.json", iterations=1000)
        again = CredentialStore(tmp_path / "u.json")
        assert again.verify("ada", "pw")
        assert not again.verify("ada", "nope")
        assert not again.verify("ghost", "pw")
        again.remove_user("ada")
        assert not again.verify("ada", "pw")


# -- admission control --------------------------------------------------------


class TestAdmission:
    def test_connection_limit(self, db):
        with serve(db, max_connections=1) as server:
            with dial(server) as conn:
                assert conn.ping()
                with pytest.raises(AdmissionError, match="1-connection"):
                    dial(server)
                assert server.stats["connections_rejected"] == 1
            # the slot frees up once the first client leaves
            wait_until(lambda: server.client_count == 0)
            with dial(server) as conn:
                assert conn.ping()

    def test_idle_timeout_reaps_half_open_connection(self, db):
        with serve(db, idle_timeout=0.4) as server:
            sock = raw_dial(server)
            try:
                assert hello(sock)["ok"] is True
                wait_until(lambda: server.client_count == 1)
                # say nothing; the server must reap us, not wait forever
                reply = recv_frame(sock)
                assert reply["ok"] is False
                assert reply["error"]["code"] == "admission"
                assert "idle" in reply["error"]["message"]
            finally:
                sock.close()
            wait_until(lambda: server.client_count == 0)

    def test_cursor_cap(self, db):
        with serve(db, max_cursors=1, fetch_rows=2) as server:
            with dial(server) as conn:
                first = conn.stream("SELECT * FROM t")
                with pytest.raises(AdmissionError, match="1-cursor"):
                    conn.stream("SELECT * FROM t")
                first.close()  # frees the slot
                second = conn.stream("SELECT * FROM t")
                assert len(second.materialize().rows) == 10

    def test_graceful_drain_releases_snapshots(self, db):
        server = serve(db, fetch_rows=2)
        conn = dial(server)
        stream = conn.stream("SELECT * FROM t")
        assert stream.fetchone() is not None
        assert db.txn.outstanding_snapshots >= 1
        server.stop(drain_timeout=2.0)
        assert db.txn.outstanding_snapshots == 0
        assert server.client_count == 0


# -- prepared statements and their LRU table ----------------------------------


class TestPreparedOverWire:
    def test_prepare_execute_close(self, db):
        with serve(db) as server, dial(server) as conn:
            stmt = conn.prepare("SELECT v FROM t WHERE id = ?")
            assert stmt.n_params == 1
            assert stmt.is_select
            assert stmt.execute((3,)).scalar() == "v3"
            assert stmt.execute((7,)).scalar() == "v7"
            stmt.close()
            with pytest.raises(DatabaseError, match="unknown statement id"):
                stmt.execute((3,))
            stmt.close()  # idempotent

    def test_lru_cap_evicts_oldest(self, db):
        with serve(db, max_statements=2) as server, dial(server) as conn:
            s1 = conn.prepare("SELECT 1")
            s2 = conn.prepare("SELECT 2")
            s1.execute()  # LRU touch: s2 is now the oldest
            s3 = conn.prepare("SELECT 3")  # evicts s2
            assert server.stats["statements_evicted"] == 1
            assert s1.execute().scalar() == 1
            assert s3.execute().scalar() == 3
            with pytest.raises(DatabaseError, match="evicted"):
                s2.execute()

    def test_disconnect_frees_all_statement_ids(self, db):
        with serve(db) as server:
            conn = dial(server)
            stmt = conn.prepare("SELECT COUNT(*) FROM t")
            assert stmt.execute().scalar() == 10
            conn.close()
            wait_until(lambda: server.client_count == 0)
            # a fresh connection starts with an empty statement table:
            # the old id is meaningless, and id numbering restarts
            conn2 = dial(server)
            with pytest.raises(DatabaseError, match="unknown statement id"):
                conn2._exchange(
                    {"op": "execute_stmt", "stmt": stmt.statement_id,
                     "params": []})
            assert conn2.prepare("SELECT 1").statement_id == 1
            conn2.close()

    def test_executemany_over_wire(self, db):
        with serve(db) as server, dial(server) as conn:
            stmt = conn.prepare("INSERT INTO t VALUES (?, ?)")
            assert stmt.executemany(
                [(100 + i, "bulk") for i in range(20)]) == 20
            assert conn.execute(
                "SELECT COUNT(*) FROM t WHERE v = 'bulk'").scalar() == 20


# -- streaming cursors --------------------------------------------------------


class TestStreamingOverWire:
    def test_paged_fetch_matches_execute(self, db):
        db.executemany("INSERT INTO t VALUES (?, ?)",
                       [(i, f"v{i}") for i in range(10, 500)])
        with serve(db, fetch_rows=64) as server, dial(server) as conn:
            streamed = conn.stream(
                "SELECT id, v FROM t ORDER BY id").materialize().rows
            executed = conn.execute("SELECT id, v FROM t ORDER BY id").rows
            assert streamed == executed
            assert len(streamed) == 500

    def test_cursor_reads_its_open_time_snapshot(self, db):
        with serve(db, fetch_rows=2) as server, dial(server) as conn:
            stream = conn.stream("SELECT id FROM t ORDER BY id")
            assert stream.fetchone() == (0,)
            # concurrent committed DML must not leak into the open cursor
            conn2 = dial(server)
            conn2.execute("DELETE FROM t")
            conn2.close()
            rest = stream.materialize().scalars()
            assert rest == list(range(1, 10))
            assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 0

    def test_abrupt_disconnect_releases_cursor_snapshot(self, db):
        """The satellite bugfix, server side: a client that vanishes
        mid-stream must not pin the GC horizon."""
        with serve(db, fetch_rows=2) as server:
            conn = dial(server)
            stream = conn.stream("SELECT * FROM t")
            assert stream.fetchone() is not None
            assert db.txn.outstanding_snapshots >= 1
            conn._sock.close()  # no bye, no close_cursor: just gone
            wait_until(lambda: server.client_count == 0)
            assert db.txn.outstanding_snapshots == 0

    def test_unknown_cursor_id(self, db):
        with serve(db) as server, dial(server) as conn:
            with pytest.raises(DatabaseError, match="unknown cursor id"):
                conn._exchange({"op": "fetch", "cursor": 99})

    def test_bad_max_rows_rejected(self, db):
        with serve(db) as server, dial(server) as conn:
            with pytest.raises(ProtocolError, match="max_rows"):
                conn._exchange({"op": "open_cursor", "sql": "SELECT 1",
                                "max_rows": -5})


# -- errors over the wire -----------------------------------------------------


class TestWireErrors:
    def test_error_class_round_trips(self, db):
        with serve(db) as server, dial(server) as conn:
            with pytest.raises(SQLSyntaxError):
                conn.execute("SELEKT nope")
            with pytest.raises(DatabaseError, match="no table 'missing'"):
                conn.execute("SELECT * FROM missing")
            # the session survives dispatch errors
            assert conn.execute("SELECT 1").scalar() == 1

    @pytest.mark.parametrize("cell", [[2], {"k": 1}], ids=["list", "dict"])
    def test_non_scalar_parameters_are_refused(self, db, cell):
        """A JSON frame can carry a list or dict parameter; the server
        refuses it as it refuses one in process, and the session lives on."""
        with serve(db) as server, dial(server) as conn:
            with pytest.raises(IntegrityError, match="not a cell"):
                conn.execute("INSERT INTO t VALUES (?, ?)", (10, cell))
            with pytest.raises(IntegrityError, match="not a cell"):
                conn.execute("SELECT COUNT(*) FROM t WHERE v = ?", (cell,))
            statement = conn.prepare("SELECT COUNT(*) FROM t WHERE v = ?")
            with pytest.raises(IntegrityError, match="not a cell"):
                statement.execute((cell,))
            with pytest.raises(IntegrityError, match="not a cell"):
                conn.executemany("INSERT INTO t VALUES (?, ?)", [(12, cell), (11, "a")])
            assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 10
            assert statement.execute(("v3",)).scalar() == 1

    def test_serialization_error_is_retryable_code(self):
        err = wire.encode_error(SerializationError("write-write conflict"))
        assert err["code"] == "serialization"
        assert err["retryable"] is True
        decoded = wire.decode_error(err)
        assert isinstance(decoded, SerializationError)

    def test_concurrent_writers_conflict_and_retry(self, db):
        """Two socket clients race write-write; the loser sees a
        retryable SerializationError and run_transaction wins on retry."""
        db.execute("CREATE TABLE acct (id INTEGER, balance INTEGER)")
        db.executemany("INSERT INTO acct VALUES (?, ?)", [(1, 100), (2, 100)])
        with serve(db) as server:
            a, b = dial(server), dial(server)
            try:
                a.begin()
                b.begin()
                a.execute("UPDATE acct SET balance = balance - 10 WHERE id = 1")
                with pytest.raises(SerializationError):
                    b.execute(
                        "UPDATE acct SET balance = balance - 20 WHERE id = 1")
                a.commit()
                b.rollback()

                # the same conflict inside run_transaction self-heals
                barrier = threading.Barrier(2)
                def transfer(amount):
                    conn = dial(server)
                    first_attempt = [True]
                    try:
                        def txn(c):
                            if first_attempt[0]:  # provoke the first
                                first_attempt[0] = False  # race only once
                                barrier.wait(timeout=5.0)
                            bal = c.execute(
                                "SELECT balance FROM acct WHERE id = 1"
                            ).scalar()
                            c.execute(
                                "UPDATE acct SET balance = ? WHERE id = 1",
                                (bal - amount,))
                        conn.run_transaction(txn)
                    finally:
                        conn.close()
                threads = [threading.Thread(target=transfer, args=(5,))
                           for _ in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10.0)
                assert a.execute(
                    "SELECT balance FROM acct WHERE id = 1").scalar() == 80
            finally:
                a.close()
                b.close()


# -- teardown: Database.close must release leaked resources -------------------


class TestTeardownRegression:
    """The satellite bugfix, in-process side: connection teardown and
    ``Database.close`` release still-open streaming cursors and their
    registered snapshots."""

    def test_connection_close_releases_open_streams(self):
        db = connect()
        db.execute("CREATE TABLE t (i INTEGER)")
        db.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(50)])
        conn = db.connect()
        stream = conn.stream("SELECT * FROM t")
        assert stream.fetchone() is not None
        assert db.txn.outstanding_snapshots == 1
        conn.close()
        assert db.txn.outstanding_snapshots == 0
        db.close()

    def test_database_close_reaps_leaked_connections(self):
        db = connect()
        db.execute("CREATE TABLE t (i INTEGER)")
        db.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(50)])
        leaked = db.connect()
        stream = leaked.stream("SELECT * FROM t")
        assert stream.fetchone() is not None
        leaked.execute("BEGIN")  # an open transaction, too
        leaked.execute("INSERT INTO t VALUES (999)")
        assert db.txn.outstanding_snapshots >= 1
        db.close()  # never explicitly closed the connection or the cursor
        assert db.txn.outstanding_snapshots == 0
        assert leaked.closed

    def test_database_stream_tracked_on_default_session(self):
        db = connect()
        db.execute("CREATE TABLE t (i INTEGER)")
        db.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(50)])
        other = db.connect()  # engage MVCC so streams register snapshots
        stream = db.stream("SELECT * FROM t")
        assert stream.fetchone() is not None
        assert db.txn.outstanding_snapshots == 1
        db.close()
        assert db.txn.outstanding_snapshots == 0
        other.close()

    def test_exhausted_stream_is_not_double_closed(self):
        db = connect()
        db.execute("CREATE TABLE t (i INTEGER)")
        db.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(10)])
        conn = db.connect()
        rows = conn.stream("SELECT * FROM t").materialize().rows
        assert len(rows) == 10
        conn.close()  # closing already-exhausted cursors is a no-op
        db.close()


# -- review regressions: torn exchanges, failed fetches, credential file -----


class _ExplodingStream:
    """Stand-in for a server-side cursor whose scan fails mid-fetch."""

    def __init__(self):
        self.columns = ["i"]
        self.closed = False

    def fetchmany(self, n):
        raise DatabaseError("scan failed mid-stream")

    def close(self):
        self.closed = True


class TestReviewRegressions:
    def test_connect_timeout_does_not_become_operation_timeout(self, db):
        """The dial timeout must govern establishment only — left on the
        socket it would turn any slow reply into a torn, desynchronized
        exchange."""
        with serve(db) as server:
            conn = dial(server, timeout=0.5)
            try:
                assert conn._sock.gettimeout() is None
                assert conn.execute("SELECT 1").scalar() == 1
            finally:
                conn.close()

    def test_torn_exchange_abandons_connection(self, db):
        """A transport failure mid-exchange leaves the stream position
        undefined; the connection must refuse reuse rather than risk
        pairing the next request with a stale reply."""
        with serve(db) as server:
            conn = dial(server)
            conn._sock.shutdown(socket.SHUT_RDWR)
            with pytest.raises((NetworkError, ProtocolError)):
                conn.execute("SELECT 1")
            assert conn.closed
            with pytest.raises(DatabaseError, match="closed"):
                conn.execute("SELECT 1")

    def test_failed_fetch_unregisters_cursor(self, db):
        """A fetch that raises mid-scan must drop the cursor and release
        its snapshot instead of pinning both until teardown."""
        with serve(db, max_cursors=1, fetch_rows=2) as server:
            with dial(server) as conn:
                stream = conn.stream("SELECT * FROM t")
                assert stream.fetchone() is not None
                wait_until(lambda: server.client_count == 1)
                state = next(iter(server._clients)).state
                (cursor_id,) = state.cursors
                broken = _ExplodingStream()
                state.cursors[cursor_id] = broken
                with pytest.raises(DatabaseError, match="mid-stream"):
                    conn._exchange({"op": "fetch", "cursor": cursor_id})
                assert broken.closed
                assert not state.cursors
                # the cap slot is free again: a new cursor fits
                replacement = conn.stream("SELECT * FROM t")
                assert replacement.fetchone() is not None
                replacement.close()

    def test_credential_file_never_world_readable(self, tmp_path):
        """The store (and its tmp file) must be owner-only from the
        first byte — no post-replace chmod window."""
        path = tmp_path / "users.json"
        store = CredentialStore(path, iterations=1000)
        store.add_user("ada", "pw")
        assert path.stat().st_mode & 0o777 == 0o600
        assert not (tmp_path / "users.json.tmp").exists()
        # a leftover tmp with loose permissions gets tightened, not kept
        loose = tmp_path / "users.json.tmp"
        loose.write_text("{}")
        loose.chmod(0o644)
        store.add_user("grace", "pw2")
        assert path.stat().st_mode & 0o777 == 0o600
        assert CredentialStore(path, iterations=1000).verify("grace", "pw2")

    def test_malformed_users_section_is_database_error(self, tmp_path):
        """A credential file whose 'users' is not an object must surface
        as DatabaseError, not a raw AttributeError."""
        path = tmp_path / "users.json"
        path.write_text(json.dumps({"users": ["not", "a", "mapping"]}))
        with pytest.raises(DatabaseError, match="unreadable"):
            CredentialStore(path)


# -- the UI protocol over the real transport ----------------------------------


class TestBuckarooNet:
    @pytest.fixture
    def ui_server(self):
        from repro.ui import BuckarooApp, BuckarooServer
        from repro.ui.netserver import BuckarooNetServer
        from tests.test_ui import make_app

        server = BuckarooServer(make_app())
        net = BuckarooNetServer(server, port=0)
        net.start()
        yield net
        net.stop()

    def test_summary_over_socket(self, ui_server):
        from repro.ui import netserver

        host, port = ui_server.address
        with netserver.connect(host, port) as ui:
            response = json.loads(
                ui.request(json.dumps({"type": "summary", "limit": 5})))
            assert response["ok"] is True
            assert response["type"] == "summary"
            assert any("Anomaly" in line for line in response["payload"])

    def test_application_errors_stay_in_band(self, ui_server):
        from repro.ui import netserver

        host, port = ui_server.address
        with netserver.connect(host, port) as ui:
            response = json.loads(
                ui.request(json.dumps({"type": "not-a-request"})))
            assert response["ok"] is False  # app-level error, not a frame error
            # and the connection still works
            again = json.loads(
                ui.request(json.dumps({"type": "summary", "limit": 1})))
            assert again["ok"] is True

    def test_wrong_op_is_a_protocol_error(self, ui_server):
        from repro.ui import netserver

        host, port = ui_server.address
        with netserver.connect(host, port) as ui:
            with pytest.raises(ProtocolError, match="speaks 'ui'"):
                ui._connection._exchange({"op": "execute", "sql": "SELECT 1"})
