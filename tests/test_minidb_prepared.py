"""The prepared-statement surface: Connection/Cursor/PreparedStatement,
parameterized plan caching, and the (schema_epoch, stats_version)
invalidation matrix — DDL, ANALYZE, and mutation-driven stats rebuilds
must all force a re-plan, and cached plans must rebind cleanly
(including NULL parameters through range scans)."""

import pytest

from repro.errors import DatabaseError
from repro.minidb import Cursor, Database, PreparedStatement
from repro.minidb import executor
from repro.minidb.stats import REBUILD_FLOOR


@pytest.fixture
def db() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (cat TEXT, val REAL)")
    db.insert_rows("t", [(f"c{i % 5}", float(i)) for i in range(100)])
    return db


def _cache_line(plan: str) -> str:
    return plan.splitlines()[0]


# ---------------------------------------------------------------------------
# PreparedStatement basics
# ---------------------------------------------------------------------------


class TestPreparedStatement:
    def test_prepare_returns_cached_statement(self, db):
        sql = "SELECT val FROM t WHERE cat = ?"
        stmt = db.prepare(sql)
        assert isinstance(stmt, PreparedStatement)
        assert db.prepare(sql) is stmt
        assert stmt.is_select and stmt.n_params == 1

    def test_execute_rebinds_parameters(self, db):
        stmt = db.prepare("SELECT COUNT(*) FROM t WHERE cat = ?")
        assert stmt.execute(("c0",)).scalar() == 20
        assert stmt.execute(("c1",)).scalar() == 20
        assert stmt.execute(("nope",)).scalar() == 0

    def test_underbinding_raises_clear_error(self, db):
        stmt = db.prepare("SELECT val FROM t WHERE cat = ? AND val > ?")
        with pytest.raises(DatabaseError, match="expects 2 parameter"):
            stmt.execute(("c0",))

    def test_stream_through_prepared(self, db):
        stmt = db.prepare("SELECT val FROM t WHERE cat = ?")
        cursor = stmt.stream(("c0",))
        first = next(iter(cursor))
        assert first == (0.0,)

    def test_stream_rejects_non_select(self, db):
        stmt = db.prepare("INSERT INTO t VALUES (?, ?)")
        with pytest.raises(DatabaseError, match="SELECT"):
            stmt.stream(("x", 1.0))

    def test_prepared_ddl_and_transactions_dispatch(self, db):
        db.prepare("CREATE INDEX idx_val ON t (val)").execute()
        assert "idx_val" in db.index_names()
        db.prepare("BEGIN").execute()
        db.prepare("ROLLBACK").execute()

    def test_constant_select(self, db):
        assert db.prepare("SELECT 1 + 1").execute().scalar() == 2

    def test_explain_on_prepared(self, db):
        stmt = db.prepare("SELECT val FROM t WHERE cat = ?")
        text = stmt.explain()
        assert text.startswith("cache: ")
        assert "SeqScan(t)" in text


# ---------------------------------------------------------------------------
# plan cache: hits, misses, LRU
# ---------------------------------------------------------------------------


class TestPlanCache:
    def test_explain_reports_miss_then_hit(self, db):
        sql = "SELECT val FROM t WHERE cat = ?"
        assert _cache_line(db.explain(sql)) == "cache: miss"
        assert _cache_line(db.explain(sql)) == "cache: hit"

    def test_execution_seeds_the_explain_cache(self, db):
        sql = "SELECT val FROM t WHERE cat = ?"
        db.execute(sql, ("c0",))
        assert _cache_line(db.explain(sql)) == "cache: hit"

    def test_prepared_and_text_paths_share_one_cache(self, db):
        stmt = db.prepare("SELECT val FROM t WHERE cat = ?")
        stmt.execute(("c0",))
        assert _cache_line(db.explain("SELECT val FROM t WHERE cat = ?")) == "cache: hit"

    def test_disabled_cache_always_misses(self, db):
        db.plan_cache.enabled = False
        sql = "SELECT val FROM t WHERE cat = ?"
        db.execute(sql, ("c0",))
        assert _cache_line(db.explain(sql)) == "cache: miss"
        assert _cache_line(db.explain(sql)) == "cache: miss"

    def test_zero_limit_disables_and_reenables(self, db):
        sql = "SELECT val FROM t WHERE cat = ?"
        db.plan_cache.limit = 0
        assert not db.plan_cache.enabled
        db.execute(sql, ("c0",))
        assert _cache_line(db.explain(sql)) == "cache: miss"
        db.plan_cache.limit = 16
        assert db.plan_cache.enabled
        db.execute(sql, ("c0",))
        assert _cache_line(db.explain(sql)) == "cache: hit"

    def test_constant_select_explains_with_cache_line(self, db):
        lines = db.explain("SELECT 1 + 1").splitlines()
        assert lines == ["cache: miss", "ConstantScan"]

    def test_lru_evicts_oldest_plan(self, db):
        db.plan_cache.limit = 2
        queries = [f"SELECT val FROM t WHERE val > {i}" for i in range(3)]
        for sql in queries:
            db.execute(sql)
        assert len(db.plan_cache) == 2
        # the first query was evicted; the last two still hit
        assert _cache_line(db.explain(queries[2])) == "cache: hit"
        assert _cache_line(db.explain(queries[1])) == "cache: hit"
        assert _cache_line(db.explain(queries[0])) == "cache: miss"

    def test_lookup_moves_entry_to_tail(self, db):
        db.plan_cache.limit = 2
        first = "SELECT val FROM t WHERE val > 1"
        second = "SELECT val FROM t WHERE val > 2"
        third = "SELECT val FROM t WHERE val > 3"
        db.explain(first)
        db.explain(second)
        db.explain(first)   # lookup refresh: second is now the LRU entry
        db.explain(third)   # evicts second, not first
        assert _cache_line(db.explain(first)) == "cache: hit"
        assert _cache_line(db.explain(second)) == "cache: miss"

    def test_statement_cache_lru(self, db, monkeypatch):
        monkeypatch.setattr("repro.minidb.database._STMT_CACHE_LIMIT", 2)
        a = db.prepare("SELECT val FROM t WHERE val > 1")
        db.prepare("SELECT val FROM t WHERE val > 2")
        assert db.prepare("SELECT val FROM t WHERE val > 1") is a  # refreshed
        db.prepare("SELECT val FROM t WHERE val > 3")  # evicts query 2
        assert db.prepare("SELECT val FROM t WHERE val > 1") is a
        assert len(db._stmt_cache) <= 2

    def test_counters(self, db):
        sql = "SELECT val FROM t WHERE cat = ?"
        db.execute(sql, ("c0",))
        db.execute(sql, ("c1",))
        info = db.plan_cache.info()
        assert info["size"] >= 1
        assert info["misses"] >= 1
        # the second execute replays the prepared statement's slot
        assert info["hits"] == 1

    def test_int_and_float_literals_never_share_a_plan(self, db):
        """Literal equality is type-aware: 1 and 1.0 are different keys.

        Plain Python equality would collide them (1 == 1.0) and hand the
        float query the int query's compiled closures, changing result
        types."""
        one_int = db.execute("SELECT 1 FROM t LIMIT 1").scalar()
        one_float = db.execute("SELECT 1.0 FROM t LIMIT 1").scalar()
        assert type(one_int) is int and type(one_float) is float

    def test_insert_literal_types_survive_caching(self, db):
        """1 vs 1.0 through cached INSERT plans keep their storage class.

        TEXT affinity renders the stored value ("1" vs "1.0"), so a
        compiled-closure collision between the numerically-equal literals
        would be visible — same-statement-shape (plan cache) and
        same-expression (compile_value memo) collisions both."""
        db.execute("CREATE TABLE a (x TEXT)")
        db.execute("CREATE TABLE b (x TEXT)")
        db.execute("INSERT INTO a VALUES (1)")
        db.execute("INSERT INTO a VALUES (1.0)")  # same table: plan-cache key
        db.execute("INSERT INTO b VALUES (1.0)")  # cross-table: value memo
        assert sorted(db.execute("SELECT x FROM a").scalars()) == ["1", "1.0"]
        assert db.execute("SELECT x FROM b").scalar() == "1.0"


# ---------------------------------------------------------------------------
# invalidation: DDL, ANALYZE, mutation-driven stats rebuilds
# ---------------------------------------------------------------------------


class TestInvalidation:
    SQL = "SELECT val FROM t WHERE cat = ?"

    def test_create_index_forces_different_plan(self, db):
        stmt = db.prepare(self.SQL)
        before = stmt.explain()
        assert "SeqScan" in before
        baseline = stmt.execute(("c0",)).rows
        db.execute("CREATE INDEX idx_cat ON t (cat) USING hash")
        after = stmt.explain()
        assert "IndexEqScan(t.cat via idx_cat)" in after
        assert "SeqScan" not in after
        assert sorted(stmt.execute(("c0",)).rows) == sorted(baseline)

    def test_drop_index_reverts_the_plan(self, db):
        db.execute("CREATE INDEX idx_cat ON t (cat) USING hash")
        stmt = db.prepare(self.SQL)
        assert "IndexEqScan" in stmt.explain()
        db.execute("DROP INDEX idx_cat")
        assert "SeqScan" in stmt.explain()
        assert stmt.execute(("c0",)).rows  # still executable

    def test_alter_add_column_replans_star(self, db):
        star = db.prepare("SELECT * FROM t WHERE cat = ?")
        assert len(star.execute(("c0",)).columns) == 2
        db.execute("ALTER TABLE t ADD COLUMN extra INT")
        result = star.execute(("c0",))
        assert result.columns == ["cat", "val", "extra"]
        assert all(row[2] is None for row in result.rows)

    def test_drop_and_recreate_table(self, db):
        stmt = db.prepare("SELECT COUNT(*) FROM t")
        assert stmt.execute().scalar() == 100
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (cat TEXT, val REAL)")
        db.insert_rows("t", [("x", 1.0)])
        assert stmt.execute().scalar() == 1

    def test_analyze_bumps_stats_version(self, db):
        db.execute(self.SQL, ("c0",))
        assert _cache_line(db.explain(self.SQL)) == "cache: hit"
        version = db.stats.version
        db.analyze()
        assert db.stats.version > version
        assert _cache_line(db.explain(self.SQL)) == "cache: miss"
        assert _cache_line(db.explain(self.SQL)) == "cache: hit"

    def test_mutation_driven_rebuild_replans(self, db):
        db.execute(self.SQL, ("c0",))  # builds stats + caches the plan
        assert _cache_line(db.explain(self.SQL)) == "cache: hit"
        db.executemany(
            "INSERT INTO t VALUES (?, ?)",
            [(f"c{i % 5}", float(i)) for i in range(3 * REBUILD_FLOOR)],
        )
        # the drift crosses the rebuild threshold: next use re-plans
        assert _cache_line(db.explain(self.SQL)) == "cache: miss"

    def test_small_mutations_keep_the_plan(self, db):
        db.execute(self.SQL, ("c0",))
        db.execute("INSERT INTO t VALUES (?, ?)", ("c0", 1.5))
        assert _cache_line(db.explain(self.SQL)) == "cache: hit"

    def test_scan_to_index_scan_after_create_index(self, db):
        """The acceptance shape: cached plan differs after CREATE INDEX."""
        stmt = db.prepare("SELECT val FROM t WHERE val > ?")
        assert "SeqScan" in stmt.explain()
        db.execute("CREATE INDEX idx_val ON t (val)")
        assert "IndexRangeScan(t.val via idx_val" in stmt.explain()


# ---------------------------------------------------------------------------
# NULL-parameter rebinding through cached plans (PR-3 runtime semantics)
# ---------------------------------------------------------------------------


class TestNullRebinding:
    @pytest.fixture
    def indexed(self, db) -> Database:
        db.execute("CREATE INDEX idx_val ON t (val)")
        return db

    def test_null_range_bound_matches_nothing(self, indexed):
        stmt = indexed.prepare("SELECT val FROM t WHERE val > ?")
        assert len(stmt.execute((90.0,)).rows) == 9
        assert stmt.execute((None,)).rows == []
        assert len(stmt.execute((90.0,)).rows) == 9  # cached plan, rebound

    def test_null_eq_bound_matches_nothing(self, indexed):
        stmt = indexed.prepare("SELECT val FROM t WHERE val = ?")
        assert stmt.execute((42.0,)).rows == [(42.0,)]
        assert stmt.execute((None,)).rows == []
        assert stmt.execute((42.0,)).rows == [(42.0,)]

    def test_null_between_bounds(self, indexed):
        stmt = indexed.prepare("SELECT val FROM t WHERE val BETWEEN ? AND ?")
        assert len(stmt.execute((0.0, 4.0)).rows) == 5
        assert stmt.execute((None, 4.0)).rows == []
        assert stmt.execute((0.0, None)).rows == []
        assert len(stmt.execute((0.0, 4.0)).rows) == 5


# ---------------------------------------------------------------------------
# executemany: one compiled plan for the whole batch
# ---------------------------------------------------------------------------


class TestExecutemany:
    def test_insert_compiles_once(self, db, monkeypatch):
        calls = []
        original = executor.compile_dml

        def counting(inner_db, stmt):
            calls.append(type(stmt).__name__)
            return original(inner_db, stmt)

        monkeypatch.setattr(executor, "compile_dml", counting)
        total = db.executemany(
            "INSERT INTO t VALUES (?, ?)", [("z", float(i)) for i in range(50)]
        )
        assert total == 50
        assert calls.count("InsertStmt") == 1

    def test_update_compiles_once_and_applies(self, db, monkeypatch):
        calls = []
        original = executor.compile_dml

        def counting(inner_db, stmt):
            calls.append(type(stmt).__name__)
            return original(inner_db, stmt)

        monkeypatch.setattr(executor, "compile_dml", counting)
        total = db.executemany(
            "UPDATE t SET val = ? WHERE cat = ?",
            [(-1.0, "c0"), (-2.0, "c1")],
        )
        assert total == 40
        assert calls.count("UpdateStmt") == 1
        assert db.execute("SELECT COUNT(*) FROM t WHERE val < 0").scalar() == 40

    def test_delete_through_prepared(self, db):
        stmt = db.prepare("DELETE FROM t WHERE cat = ?")
        assert stmt.executemany([("c0",), ("c1",)]) == 40
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 60


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE: per-node wall clock
# ---------------------------------------------------------------------------


class TestAnalyzeTiming:
    def test_every_operator_reports_time(self, db):
        plan = db.explain("SELECT val FROM t WHERE cat = ?", ("c0",),
                          analyze=True)
        lines = plan.splitlines()
        assert lines[0].startswith("cache: ")
        for line in lines[1:]:
            assert "rows=" in line and "time=" in line, line

    def test_times_render_as_milliseconds(self, db):
        plan = db.explain("SELECT COUNT(*) FROM t GROUP BY cat", analyze=True)
        assert "ms]" in plan

    def test_plain_explain_has_no_times(self, db):
        plan = db.explain("SELECT val FROM t WHERE cat = ?")
        assert "time=" not in plan


# ---------------------------------------------------------------------------
# Cursor (PEP 249 shape)
# ---------------------------------------------------------------------------


class TestCursor:
    def test_execute_and_description(self, db):
        cursor = db.cursor()
        assert isinstance(cursor, Cursor)
        cursor.execute("SELECT cat, val FROM t WHERE cat = ? ORDER BY val", ("c0",))
        assert [d[0] for d in cursor.description] == ["cat", "val"]
        assert cursor.fetchone() == ("c0", 0.0)
        assert len(cursor.fetchmany(5)) == 5
        rest = cursor.fetchall()
        assert len(rest) == 14
        assert cursor.fetchone() is None

    def test_iteration(self, db):
        cursor = db.cursor().execute("SELECT val FROM t WHERE cat = ?", ("c1",))
        assert len(list(cursor)) == 20

    def test_dml_rowcount_and_lastrowid(self, db):
        cursor = db.cursor()
        cursor.execute("INSERT INTO t VALUES (?, ?)", ("new", 1.0))
        assert cursor.rowcount == 1
        assert cursor.lastrowid is not None
        assert cursor.description is None

    def test_executemany(self, db):
        cursor = db.cursor()
        cursor.executemany("INSERT INTO t VALUES (?, ?)",
                           [("a", 1.0), ("b", 2.0)])
        assert cursor.rowcount == 2

    def test_accepts_prepared_statement(self, db):
        stmt = db.prepare("SELECT COUNT(*) FROM t WHERE cat = ?")
        cursor = db.cursor().execute(stmt, ("c0",))
        assert cursor.fetchone() == (20,)

    def test_closed_cursor_raises(self, db):
        cursor = db.cursor()
        cursor.close()
        with pytest.raises(DatabaseError, match="closed"):
            cursor.execute("SELECT 1")

    def test_context_manager_closes(self, db):
        with db.cursor() as cursor:
            cursor.execute("SELECT 1")
        with pytest.raises(DatabaseError, match="closed"):
            cursor.fetchall()
