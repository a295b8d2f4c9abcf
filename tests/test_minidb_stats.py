"""The statistics layer feeding cost-based planning: lazily rebuilt
per-column estimates, staleness tracking against Table.version, index
shortcuts, and the selectivity model."""

import pytest

from repro.minidb import Database
from repro.minidb import ast_nodes as ast
from repro.minidb.stats import (
    REBUILD_FLOOR,
    TableStats,
    conjunct_selectivity,
    estimate_filtered_rows,
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


def _stats(db: Database, name: str = "t") -> TableStats:
    return db.stats.for_table(db.table(name))


class TestTableStats:
    def test_row_count_is_live(self, db):
        stats = _stats(db)
        assert stats.n_rows == 400
        db.execute("DELETE FROM t WHERE val < 100")
        assert stats.n_rows == 300  # exact, no rebuild needed

    def test_distinct_and_null_fraction_from_scan(self, db):
        stats = _stats(db)
        assert stats.distinct("cat") == pytest.approx(10, abs=1)
        assert stats.null_fraction("note") == pytest.approx(0.25, abs=0.01)
        assert stats.null_fraction("cat") == 0.0

    def test_distinct_unique_column(self, db):
        assert _stats(db).distinct("val") == pytest.approx(400, rel=0.2)

    def test_text_index_gives_exact_distinct(self, db):
        db.execute("CREATE INDEX ic ON t (cat)")
        db.stats.analyze()
        assert _stats(db).distinct("cat") == 10

    def test_btree_index_gives_exact_distinct_and_nulls(self, db):
        db.execute("CREATE INDEX inote ON t (note)")
        db.stats.analyze()
        stats = _stats(db)
        # 300 distinct non-null notes + the NULL group excluded
        assert stats.distinct("note") == 300
        assert stats.null_fraction("note") == pytest.approx(0.25)

    def test_rowid_is_treated_as_unique(self, db):
        assert _stats(db).distinct("rowid") == 400

    def test_small_drift_does_not_rebuild(self, db):
        stats = _stats(db)
        stats.refresh()
        built = stats._built_version
        db.execute("INSERT INTO t VALUES ('zz', 1.0, 'x')")
        stats.refresh()
        assert stats._built_version == built

    def test_large_drift_rebuilds_on_demand(self, db):
        stats = _stats(db)
        stats.refresh()
        assert stats.distinct("cat") <= 11
        db.insert_rows(
            "t", [(f"new{i}", 1.0, "x") for i in range(2 * REBUILD_FLOOR + 400)]
        )
        assert stats.stale()
        assert stats.distinct("cat") > 100  # rebuilt with the new categories

    def test_analyze_forces_rebuild(self, db):
        stats = _stats(db)
        stats.refresh()
        db.execute("INSERT INTO t VALUES ('only', 1.0, 'x')")
        db.analyze()
        assert not stats.stale()
        assert stats._built_rows == 401

    def test_drop_table_forgets_stats(self, db):
        db.stats.for_table(db.table("t"))
        db.execute("DROP TABLE t")
        assert "t" not in db.stats._tables

    def test_recreated_table_gets_fresh_stats(self, db):
        old = db.stats.for_table(db.table("t"))
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (x INT)")
        new = db.stats.for_table(db.table("t"))
        assert new is not old and new.n_rows == 0


class TestSelectivityModel:
    def test_equality_uses_distinct(self, db):
        stats = _stats(db)
        conjunct = ast.Binary("=", ast.ColumnRef(None, "cat"), ast.Literal("c3"))
        assert conjunct_selectivity(stats, conjunct) == pytest.approx(0.1, abs=0.02)

    def test_in_list_scales_with_items(self, db):
        stats = _stats(db)
        conjunct = ast.InList(
            ast.ColumnRef(None, "cat"), (ast.Literal("c1"), ast.Literal("c2"))
        )
        assert conjunct_selectivity(stats, conjunct) == pytest.approx(0.2, abs=0.04)

    def test_is_null_uses_null_fraction(self, db):
        stats = _stats(db)
        conjunct = ast.IsNull(ast.ColumnRef(None, "note"))
        assert conjunct_selectivity(stats, conjunct) == pytest.approx(0.25, abs=0.02)
        negated = ast.IsNull(ast.ColumnRef(None, "note"), negated=True)
        assert conjunct_selectivity(stats, negated) == pytest.approx(0.75, abs=0.02)

    def test_or_combines_disjunctively(self, db):
        stats = _stats(db)
        eq = ast.Binary("=", ast.ColumnRef(None, "cat"), ast.Literal("c3"))
        both = ast.Binary("OR", eq, eq)
        single = conjunct_selectivity(stats, eq)
        assert single < conjunct_selectivity(stats, both) <= 2 * single

    def test_filtered_rows_estimate(self, db):
        stats = _stats(db)
        eq = ast.Binary("=", ast.ColumnRef(None, "cat"), ast.Literal("c3"))
        assert estimate_filtered_rows(stats, [eq]) == pytest.approx(40, rel=0.3)


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
    """MCV lists: skewed equality keys priced at their true fraction."""

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
        db.analyze()
        return db

    def test_mcv_list_captures_heavy_hitter(self, skewed):
        col = _stats(skewed, "s").column("tag")
        assert col.mcv is not None
        assert col.mcv["hot"] == pytest.approx(0.9, abs=0.02)

    def test_uniform_column_keeps_no_mcv(self, db):
        # every cat value sits at the average frequency: nothing qualifies
        db.analyze()
        assert _stats(db).column("cat").mcv is None

    def test_equality_selectivity_uses_mcv(self, skewed):
        stats = _stats(skewed, "s")
        hot = ast.Binary("=", ast.ColumnRef(None, "tag"), ast.Literal("hot"))
        rare = ast.Binary("=", ast.ColumnRef(None, "tag"), ast.Literal("rare70"))
        assert conjunct_selectivity(stats, hot) == pytest.approx(0.9, abs=0.02)
        # miss: residual mass spread over the remaining distincts
        assert conjunct_selectivity(stats, rare) < 0.01

    def test_inequality_complements_mcv(self, skewed):
        stats = _stats(skewed, "s")
        ne = ast.Binary("<>", ast.ColumnRef(None, "tag"), ast.Literal("hot"))
        assert conjunct_selectivity(stats, ne) == pytest.approx(0.1, abs=0.02)

    def test_parameter_comparand_keeps_uniform_model(self, skewed):
        # a param slot could bind the hitter or a rare value: cached plans
        # must not bake one binding's selectivity in
        stats = _stats(skewed, "s")
        param = ast.Binary("=", ast.ColumnRef(None, "tag"), ast.Param(0))
        assert conjunct_selectivity(stats, param) == pytest.approx(
            1.0 / stats.distinct("tag"), rel=0.01
        )

    def test_plan_flips_between_index_and_seq_scan(self, skewed):
        hot_plan = "\n".join(
            r[0] for r in skewed.execute(
                "EXPLAIN SELECT COUNT(*) FROM s WHERE tag = 'hot'"
            ).rows
        )
        rare_plan = "\n".join(
            r[0] for r in skewed.execute(
                "EXPLAIN SELECT COUNT(*) FROM s WHERE tag = 'rare70'"
            ).rows
        )
        assert "SeqScan" in hot_plan and "IndexEqScan" not in hot_plan
        assert "IndexEqScan" in rare_plan
        # and both plans still return correct results
        assert skewed.execute(
            "SELECT COUNT(*) FROM s WHERE tag = 'hot'"
        ).rows == [(1800,)]
        assert skewed.execute(
            "SELECT COUNT(*) FROM s WHERE tag = 'rare70'"
        ).rows == [(1,)]
