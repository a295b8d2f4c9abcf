"""Cardinality estimates behind cost-based planning: exact counts read
live off the table and its covering single-column indexes, flat
defaults for every other column, the selectivity model, and the
plan-key rules that decide when a cached plan re-plans."""

import pytest

from repro.minidb import Database
from repro.minidb import ast_nodes as ast
from repro.minidb.planner import (
    DEMOTE_MIN_ROWS,
    EQ_DEFAULT,
    NULL_DEFAULT,
    VECTOR_MIN_ROWS,
    column_counts,
    conjunct_selectivity,
)


@pytest.fixture
def db() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (cat TEXT, val REAL, note TEXT)")
    db.insert_rows(
        "t",
        [(f"c{i % 10}", float(i), None if i % 4 == 0 else f"n{i}")
         for i in range(400)],
    )
    return db


def _eq(column: str) -> ast.Expr:
    return ast.Binary("=", ast.ColumnRef(None, column), ast.Param(0))


def _cache_line(plan: str) -> str:
    return plan.splitlines()[0]


def _est_rows(plan: str, operator: str) -> str:
    line = next(line for line in plan.splitlines() if operator in line)
    return line.split("est_rows=")[1].rstrip("]")


class TestTableStats:
    def test_row_count_is_live(self, db):
        assert _est_rows(db.explain("SELECT val FROM t"), "SeqScan") == "400"
        db.execute("DELETE FROM t WHERE val < 100")
        # a new statement text plans from the count as it is now
        assert _est_rows(db.explain("SELECT cat FROM t"), "SeqScan") == "300"

    def test_unindexed_columns_are_unknown(self, db):
        table = db.table("t")
        assert column_counts(table, "cat") is None
        assert conjunct_selectivity(table, _eq("cat")) == EQ_DEFAULT
        is_null = ast.IsNull(ast.ColumnRef(None, "note"))
        assert conjunct_selectivity(table, is_null) == NULL_DEFAULT

    def test_distinct_unique_column(self, db):
        db.execute("CREATE INDEX iv ON t (val)")
        assert column_counts(db.table("t"), "val") == (400.0, 0.0)

    def test_text_index_gives_exact_distinct(self, db):
        db.execute("CREATE INDEX ic ON t (cat)")
        assert column_counts(db.table("t"), "cat") == (10.0, 0.0)

    def test_btree_index_gives_exact_distinct_and_nulls(self, db):
        db.execute("CREATE INDEX inote ON t (note)")
        # 300 distinct non-null notes; the NULL key is not counted
        assert column_counts(db.table("t"), "note") == (300.0, 0.25)

    def test_rowid_is_treated_as_unique(self, db):
        assert column_counts(db.table("t"), "rowid") == (400.0, 0.0)

    def test_small_drift_does_not_rebuild(self, db):
        sql = "SELECT val FROM t WHERE cat = ?"
        db.execute(sql, ("c0",))
        db.execute("INSERT INTO t VALUES ('zz', 1.0, 'x')")
        assert _cache_line(db.explain(sql)) == "cache: hit"

    def test_large_drift_rebuilds_on_demand(self, db):
        db.execute("CREATE INDEX ic ON t (cat)")
        sql = "SELECT val FROM t WHERE cat = ?"
        db.execute(sql, ("c0",))
        db.insert_rows("t", [(f"new{i}", 1.0, "x") for i in range(400)])
        # the counts are exact at once; the cached plan re-plans on its
        # next use, the table having left its row-count bucket
        assert column_counts(db.table("t"), "cat") == (410.0, 0.0)
        assert _cache_line(db.explain(sql)) == "cache: miss"
        assert _cache_line(db.explain(sql)) == "cache: hit"

    def test_analyze_forces_rebuild(self, db):
        texts = ["SELECT val FROM t WHERE cat = ?", "SELECT COUNT(*) FROM t",
                 "DELETE FROM t WHERE val < ?"]
        for sql in texts:
            db.prepare(sql).explain((0,))
        before = db.plan_cache.info()
        db.analyze()
        for sql in texts:
            assert _cache_line(db.prepare(sql).explain((0,))) == "cache: miss"
            assert _cache_line(db.prepare(sql).explain((0,))) == "cache: hit"
        after = db.plan_cache.info()
        assert after["misses"] - before["misses"] == len(texts)
        assert after["invalidations"] - before["invalidations"] == len(texts)

    def test_recreated_table_gets_fresh_stats(self, db):
        db.execute("CREATE INDEX ic ON t (cat)")
        sql = "SELECT note FROM t WHERE cat = ?"
        assert _est_rows(db.explain(sql), "IndexEqScan") == "40"
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (cat TEXT, note TEXT)")
        db.insert_rows("t", [("a", None), ("b", None)])
        assert column_counts(db.table("t"), "cat") is None
        assert _est_rows(db.explain(sql), "SeqScan") == "2"


class TestSelectivityModel:
    def test_equality_uses_distinct(self, db):
        db.execute("CREATE INDEX ic ON t (cat)")
        assert conjunct_selectivity(db.table("t"), _eq("cat")) == 0.1

    def test_in_list_scales_with_items(self, db):
        db.execute("CREATE INDEX ic ON t (cat)")
        conjunct = ast.InList(
            ast.ColumnRef(None, "cat"), (ast.Literal("c1"), ast.Literal("c2"))
        )
        assert conjunct_selectivity(db.table("t"), conjunct) == 0.2

    def test_is_null_uses_null_fraction(self, db):
        db.execute("CREATE INDEX inote ON t (note)")
        table = db.table("t")
        conjunct = ast.IsNull(ast.ColumnRef(None, "note"))
        assert conjunct_selectivity(table, conjunct) == 0.25
        negated = ast.IsNull(ast.ColumnRef(None, "note"), negated=True)
        assert conjunct_selectivity(table, negated) == 0.75

    def test_or_combines_disjunctively(self, db):
        table = db.table("t")
        eq = _eq("cat")
        both = ast.Binary("OR", eq, eq)
        single = conjunct_selectivity(table, eq)
        assert single < conjunct_selectivity(table, both) <= 2 * single

    def test_filtered_rows_estimate(self, db):
        plan = db.explain("SELECT rowid FROM t WHERE cat = 'c3'")
        assert _est_rows(plan, "Filter") == "40"  # 400 rows at EQ_DEFAULT


class TestBTreeDistinctCounter:
    def test_n_keys_is_maintained_incrementally(self):
        db = Database()
        db.execute("CREATE TABLE t (v REAL)")
        db.execute("CREATE INDEX iv ON t (v)")
        db.insert_rows("t", [(float(i % 5),) for i in range(50)])
        index = db.table("t").indexes["iv"]
        assert index.n_keys == 5
        db.execute("DELETE FROM t WHERE v = 0")
        assert index.n_keys == 4
        db.execute("UPDATE t SET v = 9 WHERE v = 1")
        assert index.n_keys == 4  # key 1 removed, key 9 added
        index._tree.check_invariants()


class TestMostCommonValues:
    """A skewed column's most common value is priced like any other
    value: ``1/distinct``, whatever the comparand."""

    @pytest.fixture
    def skewed(self) -> Database:
        db = Database()
        db.execute("CREATE TABLE s (id INTEGER, tag TEXT)")
        # 90% of rows carry 'hot'; the rest are singletons
        db.insert_rows(
            "s",
            [(i, "hot" if i % 10 else f"rare{i}") for i in range(2000)],
        )
        db.execute("CREATE INDEX idx_tag ON s (tag)")
        return db

    def test_parameter_comparand_keeps_uniform_model(self, skewed):
        # a param slot could bind the hitter or a rare value: cached plans
        # must not bake one binding's selectivity in
        table = skewed.table("s")
        uniform = 1.0 / column_counts(table, "tag")[0]
        for comparand in (ast.Param(0), ast.Literal("hot"), ast.Literal("rare70")):
            eq = ast.Binary("=", ast.ColumnRef(None, "tag"), comparand)
            assert conjunct_selectivity(table, eq) == pytest.approx(uniform)


class TestPlanKeyRules:
    """A cached plan is keyed on ``(schema_epoch, vectorize, row-count
    bucket)``: it replays while its table stays in one power-of-two
    bucket and re-plans when the table crosses an edge."""

    def test_cached_range_select_replans_at_the_vectorize_edge(self):
        db = Database()
        db.execute("CREATE TABLE r (val REAL)")
        db.insert_rows("r", [(float(i),) for i in range(300)])
        stmt = db.prepare("SELECT val FROM r WHERE val > ?")
        plan = stmt.explain((0,))
        assert "SeqScan(r)" in plan and "[batch]" not in plan

        misses = db.plan_cache.info()["misses"]
        for i in range(200):  # 500 rows: the bucket of 300
            db.insert_rows("r", [(float(i),)])
            assert len(stmt.execute((250.0,)).rows) == 49
        assert db.plan_cache.info()["misses"] == misses
        db.insert_rows("r", [(1.0,)] * (int(VECTOR_MIN_ROWS) - 500))
        plan = stmt.explain((0,))
        assert _cache_line(plan) == "cache: miss"
        assert "SeqScan(r) [batch]" in plan  # a BatchScan
        db.insert_rows("r", [(2.0,)] * 400)  # 912 rows: the bucket of 512
        assert _cache_line(stmt.explain((0,))) == "cache: hit"
        db.execute("DELETE FROM r WHERE val < ?", (3.0,))  # back to 494
        plan = stmt.explain((0,))
        assert _cache_line(plan) == "cache: miss"
        assert "SeqScan(r)" in plan and "[batch]" not in plan
        assert _cache_line(stmt.explain((0,))) == "cache: hit"

    def test_first_plan_prices_equality_at_exact_rows_per_key(self, db):
        db.execute("CREATE INDEX ic ON t (cat)")
        db.execute("SELECT val FROM t WHERE cat = ?", ("c0",))
        db.execute("DELETE FROM t WHERE cat = ?", ("c9",))  # 360 rows, 9 keys
        db.insert_rows("t", [("c0", 1.0, None)] * 18)  # 378 rows
        plan = db.explain("SELECT note FROM t WHERE cat = ?", ("c1",))
        assert _cache_line(plan) == "cache: miss"
        assert _est_rows(plan, "IndexEqScan") == str(378 // 9)

    def test_single_key_equality_probe_demotes_from_128_rows(self):
        db = Database()
        db.execute("CREATE TABLE f (flag TEXT, val REAL)")
        db.execute("CREATE INDEX i_flag ON f (flag)")
        db.insert_rows("f", [("a", float(i)) for i in range(DEMOTE_MIN_ROWS - 1)])
        stmt = db.prepare("SELECT val FROM f WHERE flag = ?")
        assert "IndexEqScan(f.flag via i_flag)" in stmt.explain(("a",))
        db.execute("INSERT INTO f VALUES ('a', -1.0)")
        plan = stmt.explain(("a",))
        assert _cache_line(plan) == "cache: miss"
        assert "IndexEqScan" not in plan and "SeqScan(f)" in plan
        assert len(stmt.execute(("a",)).rows) == DEMOTE_MIN_ROWS
        # a second distinct key halves the estimate: the probe stays
        db.insert_rows("f", [("b", 0.0)] * 20)
        fresh = db.explain("SELECT flag FROM f WHERE flag = ?", ("a",))
        assert "IndexEqScan(f.flag via i_flag)" in fresh
