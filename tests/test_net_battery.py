"""The same engine battery run over both transports.

Every test here executes twice — once through in-process
``db.connect()`` connections and once through socket clients talking to
a :class:`~repro.minidb.net.server.MiniDBServer` over the wire.  The
network client promises the exact PEP 249 surface of the in-process
connection (execute / executemany / stream / prepare / cursor /
transactions / run_transaction), and these tests are the contract that
says so: none of them branch on the transport.
"""

import pytest

from repro.errors import (
    IntegrityError,
    SerializationError,
    SQLSyntaxError,
    TransactionError,
)
from repro.minidb import connect
from repro.minidb.net import MiniDBServer
from repro.minidb.net import client as net_client


class Transport:
    """A uniform connection factory over one database."""

    def __init__(self, kind, db, server=None):
        self.kind = kind
        self.db = db
        self.server = server
        self._conns = []

    def connect(self):
        if self.server is not None:
            host, port = self.server.address
            conn = net_client.connect(host, port)
        else:
            conn = self.db.connect()
        self._conns.append(conn)
        return conn

    def close(self):
        for conn in self._conns:
            if not conn.closed:
                conn.close()
        if self.server is not None:
            self.server.stop()
        self.db.close()


@pytest.fixture(params=["inprocess", "network"])
def transport(request):
    db = connect()
    server = None
    if request.param == "network":
        server = MiniDBServer(db, port=0, fetch_rows=4)
        server.start()
    handle = Transport(request.param, db, server)
    yield handle
    handle.close()


@pytest.fixture
def conn(transport):
    conn = transport.connect()
    conn.execute("CREATE TABLE people (name TEXT, dept TEXT, age INT)")
    conn.executemany(
        "INSERT INTO people VALUES (?, ?, ?)",
        [("ada", "eng", 36), ("grace", "eng", 45), ("alan", "math", 41),
         ("kurt", "math", 29), ("emmy", "math", 53), ("rosa", "bio", 33)],
    )
    return conn


class TestCrudBothTransports:
    def test_insert_select_where(self, conn):
        rows = conn.execute(
            "SELECT name FROM people WHERE age > 40 ORDER BY name").scalars()
        assert rows == ["alan", "emmy", "grace"]

    def test_update_and_delete(self, conn):
        assert conn.execute(
            "UPDATE people SET age = age + 1 WHERE dept = 'eng'").rowcount == 2
        assert conn.execute(
            "SELECT SUM(age) FROM people WHERE dept = 'eng'").scalar() == 83
        assert conn.execute(
            "DELETE FROM people WHERE dept = 'bio'").rowcount == 1
        assert conn.execute("SELECT COUNT(*) FROM people").scalar() == 5

    def test_group_by_order_by_limit(self, conn):
        rows = conn.execute(
            "SELECT dept, COUNT(*) AS n FROM people GROUP BY dept "
            "ORDER BY n DESC, dept LIMIT 2").rows
        assert rows == [("math", 3), ("eng", 2)]

    def test_join_is_refused(self, conn):
        """A SELECT reads one table: every JOIN form is a syntax error on
        both transports, and the connection keeps working afterwards."""
        conn.execute("CREATE TABLE heads (dept TEXT, head TEXT)")
        for join in ("JOIN", "INNER JOIN", "LEFT OUTER JOIN"):
            with pytest.raises(SQLSyntaxError, match="one table"):
                conn.execute(f"SELECT p.name FROM people p {join} heads h "
                             "ON p.dept = h.dept")
        assert conn.execute(
            "SELECT COUNT(*) FROM people WHERE age > 44").scalar() == 2

    def test_null_and_unicode_round_trip(self, transport):
        conn = transport.connect()
        conn.execute("CREATE TABLE v (a INT, f REAL, s TEXT)")
        conn.execute("INSERT INTO v VALUES (?, ?, ?)",
                     (None, -0.125, "naïve ünïcode"))
        assert conn.execute("SELECT a, f, s FROM v").rows == [
            (None, -0.125, "naïve ünïcode")]
        assert conn.execute(
            "SELECT COUNT(*) FROM v WHERE a IS NULL").scalar() == 1

    def test_lastrowid_and_rowcount(self, conn):
        result = conn.execute(
            "INSERT INTO people VALUES ('new', 'eng', 20)")
        assert result.rowcount == 1
        assert result.lastrowid is not None


class TestStreamingBothTransports:
    def test_stream_matches_execute(self, transport):
        conn = transport.connect()
        conn.execute("CREATE TABLE seq (i INT)")
        conn.executemany("INSERT INTO seq VALUES (?)",
                         [(i,) for i in range(300)])
        stream = conn.stream("SELECT i FROM seq ORDER BY i")
        assert stream.columns == ["i"]
        assert stream.fetchone() == (0,)
        assert stream.fetchmany(5) == [(i,) for i in range(1, 6)]
        rest = stream.materialize()
        assert rest.scalars() == list(range(6, 300))

    def test_stream_is_snapshot_consistent(self, conn, transport):
        stream = conn.stream("SELECT name FROM people ORDER BY name")
        first = stream.fetchone()
        writer = transport.connect()
        writer.execute("DELETE FROM people")
        got = [first] + list(stream)
        assert got == [("ada",), ("alan",), ("emmy",), ("grace",),
                       ("kurt",), ("rosa",)]
        assert conn.execute("SELECT COUNT(*) FROM people").scalar() == 0

    def test_stream_early_close(self, conn):
        with conn.stream("SELECT * FROM people") as stream:
            assert stream.fetchone() is not None
        # the context manager closed it; the connection still works
        assert conn.execute("SELECT COUNT(*) FROM people").scalar() == 6


class TestPreparedBothTransports:
    def test_prepared_reuse(self, conn):
        stmt = conn.prepare("SELECT name FROM people WHERE dept = ?")
        assert stmt.n_params == 1
        assert stmt.is_select
        assert sorted(stmt.execute(("eng",)).scalars()) == ["ada", "grace"]
        assert stmt.execute(("bio",)).scalars() == ["rosa"]

    def test_prepared_executemany(self, transport):
        conn = transport.connect()
        conn.execute("CREATE TABLE seq (i INT)")
        stmt = conn.prepare("INSERT INTO seq VALUES (?)")
        assert stmt.executemany([(i,) for i in range(100)]) == 100
        assert conn.execute("SELECT SUM(i) FROM seq").scalar() == sum(range(100))

    def test_cursor_pep249_surface(self, conn):
        cursor = conn.cursor()
        cursor.execute("SELECT name, age FROM people WHERE dept = ? "
                       "ORDER BY name", ("math",))
        assert [d[0] for d in cursor.description] == ["name", "age"]
        assert cursor.fetchone() == ("alan", 41)
        assert cursor.fetchmany(1) == [("emmy", 53)]
        assert cursor.fetchall() == [("kurt", 29)]
        assert cursor.fetchone() is None

    def test_cursor_accepts_prepared_handle(self, conn):
        stmt = conn.prepare("SELECT COUNT(*) FROM people WHERE age > ?")
        cursor = conn.cursor()
        assert cursor.execute(stmt, (40,)).fetchone() == (3,)
        assert cursor.execute(stmt, (100,)).fetchone() == (0,)


class TestTransactionsBothTransports:
    def test_commit_and_rollback(self, conn):
        conn.execute("BEGIN")
        assert conn.in_transaction
        conn.execute("INSERT INTO people VALUES ('new', 'eng', 20)")
        conn.rollback()
        assert not conn.in_transaction
        assert conn.execute("SELECT COUNT(*) FROM people").scalar() == 6

        conn.begin()
        conn.execute("INSERT INTO people VALUES ('new', 'eng', 20)")
        conn.commit()
        assert conn.execute("SELECT COUNT(*) FROM people").scalar() == 7

    def test_sql_level_transactions(self, conn):
        conn.execute("BEGIN")
        conn.execute("DELETE FROM people")
        conn.execute("ROLLBACK")
        assert conn.execute("SELECT COUNT(*) FROM people").scalar() == 6

    def test_commit_without_txn_is_noop(self, conn):
        conn.commit()  # PEP 249: must not raise
        conn.rollback()

    def test_double_begin_raises(self, conn):
        conn.begin()
        with pytest.raises(TransactionError):
            conn.begin()
        conn.rollback()

    def test_snapshot_isolation(self, conn, transport):
        reader = transport.connect()
        reader.begin()
        baseline = reader.execute("SELECT COUNT(*) FROM people").scalar()
        writer = transport.connect()
        writer.begin()
        writer.execute("DELETE FROM people WHERE dept = 'math'")
        writer.commit()
        # the reader's snapshot predates the delete
        assert reader.execute(
            "SELECT COUNT(*) FROM people").scalar() == baseline
        reader.commit()
        assert reader.execute("SELECT COUNT(*) FROM people").scalar() == 3

    def test_write_conflict_detected(self, conn, transport):
        a = transport.connect()
        b = transport.connect()
        a.begin()
        b.begin()
        a.execute("UPDATE people SET age = 1 WHERE name = 'ada'")
        with pytest.raises(SerializationError):
            b.execute("UPDATE people SET age = 2 WHERE name = 'ada'")
        a.commit()
        b.rollback()

    def test_run_transaction_commits(self, conn):
        def txn(c):
            c.execute("INSERT INTO people VALUES ('tx', 'ops', 1)")
            return c.execute("SELECT COUNT(*) FROM people").scalar()

        assert conn.run_transaction(txn) == 7
        assert not conn.in_transaction
        assert conn.execute(
            "SELECT COUNT(*) FROM people WHERE name = 'tx'").scalar() == 1

    def test_integrity_error_crosses_transport(self, conn):
        conn.execute("CREATE UNIQUE INDEX u_name ON people(name)")
        conn.begin()
        with pytest.raises(IntegrityError):
            conn.execute("INSERT INTO people VALUES ('ada', 'dup', 1)")
        conn.rollback()
        assert conn.execute("SELECT COUNT(*) FROM people").scalar() == 6

    def test_context_manager_commits_on_clean_exit(self, transport):
        setup = transport.connect()
        setup.execute("CREATE TABLE t (i INT)")
        with transport.connect() as conn:
            conn.begin()
            conn.execute("INSERT INTO t VALUES (1)")
        assert setup.execute("SELECT COUNT(*) FROM t").scalar() == 1
