"""The same engine battery run in both storage modes.

Every test here executes twice — once against an in-memory database
(dict-backed row heaps) and once against a file-backed database (slotted
pages behind the buffer pool, deliberately undersized so scans evict).
The paged heap is a drop-in replacement for the dict heap; these tests
are the contract that says so.
"""

import pytest

from repro.errors import IntegrityError, SQLSyntaxError, TransactionError
from repro.minidb import connect
from repro.minidb.pager import PAGE_SIZE


@pytest.fixture(params=["memory", "file"])
def db(request, tmp_path):
    if request.param == "memory":
        handle = connect()
    else:
        handle = connect(tmp_path / "modes.db", pool_pages=8)
    yield handle
    handle.close()


@pytest.fixture
def people(db):
    db.execute("CREATE TABLE people (name TEXT, dept TEXT, age INT)")
    db.executemany(
        "INSERT INTO people VALUES (?, ?, ?)",
        [("ada", "eng", 36), ("grace", "eng", 45), ("alan", "math", 41),
         ("kurt", "math", 29), ("emmy", "math", 53), ("rosa", "bio", 33)],
    )
    return db


class TestCrudBothModes:
    def test_insert_select_where(self, people):
        rows = people.execute(
            "SELECT name FROM people WHERE age > 40 ORDER BY name").scalars()
        assert rows == ["alan", "emmy", "grace"]

    def test_update_and_delete(self, people):
        assert people.execute(
            "UPDATE people SET age = age + 1 WHERE dept = 'eng'").rowcount == 2
        assert people.execute(
            "SELECT SUM(age) FROM people WHERE dept = 'eng'").scalar() == 83
        assert people.execute(
            "DELETE FROM people WHERE dept = 'bio'").rowcount == 1
        assert people.execute("SELECT COUNT(*) FROM people").scalar() == 5

    def test_group_by_order_by_limit(self, people):
        rows = people.execute(
            "SELECT dept, COUNT(*) AS n FROM people GROUP BY dept "
            "ORDER BY n DESC, dept LIMIT 2").rows
        assert rows == [("math", 3), ("eng", 2)]

    def test_join_is_refused(self, people):
        """A SELECT reads one table: every JOIN form is a syntax error,
        and the database keeps working afterwards."""
        people.execute("CREATE TABLE heads (dept TEXT, head TEXT)")
        for join in ("JOIN", "INNER JOIN", "LEFT OUTER JOIN"):
            with pytest.raises(SQLSyntaxError, match="one table"):
                people.execute(f"SELECT p.name FROM people p {join} heads h "
                               "ON p.dept = h.dept")
        assert people.execute(
            "SELECT COUNT(*) FROM people WHERE age > 44").scalar() == 2

    def test_null_round_trip(self, db):
        db.execute("CREATE TABLE n (a INT, b TEXT)")
        db.execute("INSERT INTO n (a) VALUES (1)")
        db.execute("INSERT INTO n VALUES (NULL, 'only-b')")
        assert db.execute("SELECT b FROM n WHERE a = 1").scalar() is None
        assert db.execute(
            "SELECT COUNT(*) FROM n WHERE a IS NULL").scalar() == 1

    def test_value_types_round_trip(self, db):
        db.execute("CREATE TABLE v (i INT, f REAL, s TEXT)")
        db.execute("INSERT INTO v VALUES (?, ?, ?)",
                   (2 ** 70, -0.125, "naïve ünïcode"))
        assert db.execute("SELECT i, f, s FROM v").rows == [
            (2 ** 70, -0.125, "naïve ünïcode")]

    def test_oversized_rows(self, db):
        """In file mode this forces overflow chains (> one 4KB page)."""
        db.execute("CREATE TABLE blobs (k INT, body TEXT)")
        bodies = {k: f"body-{k}-" + "z" * (2 * PAGE_SIZE + k) for k in range(5)}
        db.executemany("INSERT INTO blobs VALUES (?, ?)",
                       list(bodies.items()))
        for k, body in bodies.items():
            assert db.execute(
                "SELECT body FROM blobs WHERE k = ?", (k,)).scalar() == body
        db.execute("UPDATE blobs SET body = 'tiny' WHERE k = 2")
        assert db.execute(
            "SELECT body FROM blobs WHERE k = 2").scalar() == "tiny"


class TestIndexesBothModes:
    def test_index_probe_matches_scan(self, people):
        people.execute("CREATE INDEX idx_age ON people(age)")
        probe = people.execute(
            "SELECT name FROM people WHERE age = 41").scalars()
        assert probe == ["alan"]
        rng = people.execute(
            "SELECT name FROM people WHERE age BETWEEN 30 AND 40 "
            "ORDER BY name").scalars()
        assert rng == ["ada", "rosa"]

    def test_unique_enforced(self, people):
        people.execute("CREATE UNIQUE INDEX u_name ON people(name)")
        conn = people.connect()
        conn.execute("BEGIN")
        with pytest.raises(IntegrityError, match="UNIQUE"):
            conn.execute("INSERT INTO people VALUES ('ada', 'dup', 1)")
        conn.rollback()
        conn.close()
        assert people.execute(
            "SELECT COUNT(*) FROM people").scalar() == 6

    def test_index_survives_update_churn(self, people):
        people.execute("CREATE INDEX idx_dept ON people(dept)")
        people.execute("UPDATE people SET dept = 'cs' WHERE dept = 'math'")
        assert people.execute(
            "SELECT COUNT(*) FROM people WHERE dept = 'cs'").scalar() == 3
        assert people.execute(
            "SELECT COUNT(*) FROM people WHERE dept = 'math'").scalar() == 0


class TestDdlBothModes:
    def test_alter_add_column(self, people):
        people.execute("ALTER TABLE people ADD COLUMN office TEXT")
        assert people.execute(
            "SELECT office FROM people WHERE name = 'ada'").scalar() is None
        people.execute("UPDATE people SET office = 'A1' WHERE dept = 'eng'")
        assert people.execute(
            "SELECT COUNT(*) FROM people WHERE office = 'A1'").scalar() == 2

    def test_drop_table(self, people):
        people.execute("DROP TABLE people")
        assert not people.has_table("people")
        people.execute("CREATE TABLE people (name TEXT)")
        assert people.execute("SELECT COUNT(*) FROM people").scalar() == 0


class TestTransactionsBothModes:
    def test_commit_and_rollback(self, people):
        conn = people.connect()
        conn.execute("BEGIN")
        conn.execute("INSERT INTO people VALUES ('new', 'eng', 20)")
        conn.rollback()
        assert people.execute("SELECT COUNT(*) FROM people").scalar() == 6

        conn.execute("BEGIN")
        conn.execute("INSERT INTO people VALUES ('new', 'eng', 20)")
        conn.commit()
        assert people.execute("SELECT COUNT(*) FROM people").scalar() == 7
        conn.close()

    def test_snapshot_isolation(self, people):
        reader = people.connect()
        writer = people.connect()
        reader.execute("BEGIN")
        baseline = reader.execute("SELECT COUNT(*) FROM people").scalar()
        writer.execute("BEGIN")
        writer.execute("DELETE FROM people WHERE dept = 'math'")
        writer.commit()
        # the reader's snapshot predates the delete
        assert reader.execute(
            "SELECT COUNT(*) FROM people").scalar() == baseline
        reader.commit()
        assert reader.execute("SELECT COUNT(*) FROM people").scalar() == 3
        reader.close()
        writer.close()

    def test_write_conflict_detected(self, people):
        a = people.connect()
        b = people.connect()
        a.execute("BEGIN")
        b.execute("BEGIN")
        a.execute("UPDATE people SET age = 1 WHERE name = 'ada'")
        with pytest.raises(TransactionError):
            b.execute("UPDATE people SET age = 2 WHERE name = 'ada'")
        a.commit()
        b.rollback()
        a.close()
        b.close()


class TestPreparedBothModes:
    def test_prepared_statement_reuse(self, people):
        stmt = people.prepare("SELECT name FROM people WHERE dept = ?")
        assert sorted(stmt.execute(("eng",)).scalars()) == ["ada", "grace"]
        assert stmt.execute(("bio",)).scalars() == ["rosa"]

    def test_executemany_batches(self, db):
        db.execute("CREATE TABLE seq (i INT)")
        assert db.executemany(
            "INSERT INTO seq VALUES (?)", [(i,) for i in range(250)]) == 250
        assert db.execute("SELECT SUM(i) FROM seq").scalar() == sum(range(250))
