"""The cost-based plan IR: EXPLAIN tree shapes, join reordering, merge
joins, streaming aggregation, range+order fusion, and the regressions
fixed alongside the refactor (NULL range bounds, LIMIT short-circuiting
through nested-loop joins)."""

import pytest

from repro.errors import ExecutionError, PlanningError
from repro.minidb import Database
from repro.minidb.planner import VECTOR_MIN_ROWS


def _indent_of(plan: str, marker: str) -> int:
    for line in plan.splitlines():
        if marker in line:
            return len(line) - len(line.lstrip())
    raise AssertionError(f"{marker!r} not in plan:\n{plan}")


# ---------------------------------------------------------------------------
# EXPLAIN shape: every operator prints its name, chosen index, and est_rows
# ---------------------------------------------------------------------------


class TestExplainShape:
    @pytest.fixture
    def db(self) -> Database:
        db = Database()
        db.execute("CREATE TABLE t (cat TEXT, val REAL)")
        db.insert_rows("t", [(f"c{i % 5}", float(i)) for i in range(200)])
        db.execute("CREATE INDEX idx_val ON t (val)")
        return db

    def test_scan_line_has_est_rows(self, db):
        plan = db.explain("SELECT val FROM t")
        assert "SeqScan(t) [est_rows=200]" in plan
        assert "Project(val)" in plan

    def test_index_scan_names_index_and_estimates(self, db):
        plan = db.explain("SELECT val FROM t WHERE val > 100")
        assert "IndexRangeScan(t.val via idx_val" in plan
        assert "est_rows=" in plan

    def test_filter_is_its_own_node(self, db):
        plan = db.explain("SELECT val FROM t WHERE cat = 'c1'")
        assert "SeqScan(t)" in plan
        assert "Filter(cat = 'c1')" in plan
        # the filter sits above the scan in the tree
        assert _indent_of(plan, "Filter(") < _indent_of(plan, "SeqScan")

    def test_limit_and_topk_nodes(self, db):
        plan = db.explain("SELECT val FROM t ORDER BY cat LIMIT 3")
        assert "TopK(keys=1)" in plan and "Limit [est_rows=3]" in plan

    def test_sort_node_without_limit(self, db):
        plan = db.explain("SELECT val FROM t ORDER BY cat")
        assert "Sort(keys=1)" in plan

    def test_desc_range_scan_serves_order(self, db):
        plan = db.explain("SELECT val FROM t WHERE val > 50 ORDER BY val DESC LIMIT 3")
        assert "IndexRangeScan" in plan and "DESC" in plan
        assert "TopK" not in plan and "Sort" not in plan
        rows = db.execute(
            "SELECT val FROM t WHERE val > 50 ORDER BY val DESC LIMIT 3"
        ).scalars()
        assert rows == [199.0, 198.0, 197.0]

    def test_explain_analyze_reports_actual_rows(self, db):
        plan = db.explain("SELECT val FROM t WHERE cat = 'c1' LIMIT 7", analyze=True)
        assert "rows=7" in plan and "est_rows=" in plan

    def test_explain_analyze_rejects_dml(self, db):
        with pytest.raises(PlanningError):
            db.execute("EXPLAIN ANALYZE DELETE FROM t")


# ---------------------------------------------------------------------------
# join reordering (the acceptance scenario) and each join strategy's shape
# ---------------------------------------------------------------------------


def _three_table_db(n_big: int = 5000) -> Database:
    db = Database()
    db.execute("CREATE TABLE big (m INT, s INT, v REAL)")
    db.execute("CREATE TABLE mid (id INT, w REAL)")
    db.execute("CREATE TABLE small (id INT, flag INT)")
    db.insert_rows("big", [(i % 500, i % 50, float(i)) for i in range(n_big)])
    db.insert_rows("mid", [(i, float(i)) for i in range(500)])
    # flag is selective (25 distinct values): WHERE flag = 1 keeps 2 rows
    db.insert_rows("small", [(i, i % 25) for i in range(50)])
    return db


THREE_TABLE_SQL = (
    "SELECT big.v, mid.w, small.id FROM big "
    "JOIN mid ON big.m = mid.id "
    "JOIN small ON big.s = small.id WHERE small.flag = 1"
)


class TestJoinReordering:
    def test_small_filtered_table_becomes_first_build_side(self):
        """The acceptance criterion: a 3-table equi-join with a small
        filtered table written *last* in syntactic order is planned with
        that table as the first (deepest) build side."""
        db = _three_table_db()
        plan = db.explain(THREE_TABLE_SQL)
        assert "HashJoin(small" in plan and "HashJoin(mid" in plan
        # deeper indentation = earlier join step; small must join first
        assert _indent_of(plan, "HashJoin(small") > _indent_of(plan, "HashJoin(mid")
        # the filter on the small table is pushed into its build-side scan
        assert _indent_of(plan, "Filter(small.flag = 1)") > _indent_of(
            plan, "HashJoin(small"
        )

    def test_reordered_results_match_syntactic(self):
        db = _three_table_db(n_big=2000)
        fast = db.execute(THREE_TABLE_SQL).rows
        db.reorder_joins = False
        plan = db.explain(THREE_TABLE_SQL)
        # syntactic order: mid joins first (deepest)
        assert _indent_of(plan, "HashJoin(mid") > _indent_of(plan, "HashJoin(small")
        slow = db.execute(THREE_TABLE_SQL).rows
        assert sorted(map(repr, fast)) == sorted(map(repr, slow))

    def test_where_pushdown_to_any_table(self):
        """In reorder mode, single-table WHERE conjuncts reach the scan of
        whichever table they mention — not just the base table."""
        db = _three_table_db(n_big=1000)
        db.execute("CREATE INDEX idx_mid_id ON mid (id)")
        plan = db.explain(
            "SELECT big.v FROM big JOIN mid ON big.m = mid.id WHERE mid.id = 7"
        )
        assert "IndexEqScan" in plan and "idx_mid_id" in plan

    def test_left_join_keeps_syntactic_order(self):
        db = _three_table_db(n_big=500)
        plan = db.explain(
            "SELECT big.v FROM big LEFT JOIN mid ON big.m = mid.id "
            "JOIN small ON big.s = small.id WHERE small.flag = 1"
        )
        # any LEFT join disables reordering: mid joins first, LEFT marked
        assert _indent_of(plan, "HashJoin(mid") > _indent_of(plan, "HashJoin(small")
        assert "LEFT" in plan

    def test_cross_join_component_still_works(self):
        db = Database()
        db.execute("CREATE TABLE a (x INT)")
        db.execute("CREATE TABLE b (y INT)")
        db.execute("CREATE TABLE c (z INT)")
        db.insert_rows("a", [(1,), (2,)])
        db.insert_rows("b", [(10,), (20,)])
        db.insert_rows("c", [(5,), (6,)])
        sql = ("SELECT a.x, b.y, c.z FROM a JOIN b ON a.x < b.y "
               "JOIN c ON c.z = a.x + 4 ORDER BY a.x, b.y, c.z")
        rows = db.execute(sql).rows
        assert rows == [(1, 10, 5), (1, 20, 5), (2, 10, 6), (2, 20, 6)]


# ---------------------------------------------------------------------------
# merge joins
# ---------------------------------------------------------------------------


class TestMergeJoin:
    @pytest.fixture
    def pair(self):
        """An indexed db (merge-joinable) and an identical unindexed twin."""
        indexed, plain = Database(), Database()
        rows_a = [(float(i % 13), i) for i in range(60)] + [(None, 99)]
        rows_b = [(float(i % 9), i * 10) for i in range(40)] + [(None, 990)]
        for db in (indexed, plain):
            db.execute("CREATE TABLE a (k REAL, x INT)")
            db.execute("CREATE TABLE b (k REAL, y INT)")
            db.insert_rows("a", rows_a)
            db.insert_rows("b", rows_b)
        indexed.execute("CREATE INDEX iak ON a (k)")
        indexed.execute("CREATE INDEX ibk ON b (k)")
        return indexed, plain

    SQL = "SELECT a.k, a.x, b.y FROM a JOIN b ON a.k = b.k ORDER BY a.k"

    @staticmethod
    def _check_equivalent(fast, slow):
        """Key order must match; full rows as multisets (ties may differ)."""
        assert [row[0] for row in fast] == [row[0] for row in slow]
        assert sorted(map(repr, fast)) == sorted(map(repr, slow))

    def test_order_by_join_key_uses_merge_and_elides_sort(self, pair):
        indexed, _ = pair
        plan = indexed.explain(self.SQL)
        assert "MergeJoin(b, key=k)" in plan
        assert "HashJoin" not in plan
        assert "Sort" not in plan and "TopK" not in plan
        assert "IndexOrderScan(a.k via iak)" in plan
        assert "IndexOrderScan(b.k via ibk)" in plan

    def test_merge_results_match_hash_twin(self, pair):
        indexed, plain = pair
        assert "MergeJoin" in indexed.explain(self.SQL)
        assert "HashJoin" in plain.explain(self.SQL)
        self._check_equivalent(indexed.execute(self.SQL).rows,
                               plain.execute(self.SQL).rows)

    def test_merge_skips_null_keys(self, pair):
        indexed, plain = pair
        n_fast = indexed.execute("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k").scalar()
        n_slow = plain.execute("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k").scalar()
        assert n_fast == n_slow

    def test_merge_with_limit_touches_few_keys(self, pair):
        indexed, _ = pair
        rows = indexed.execute(
            "SELECT a.k FROM a JOIN b ON a.k = b.k ORDER BY a.k LIMIT 4"
        ).scalars()
        assert rows == sorted(rows) and len(rows) == 4

    def test_merge_with_extra_residual_conjunct(self, pair):
        indexed, plain = pair
        sql = ("SELECT a.k, a.x, b.y FROM a JOIN b ON a.k = b.k AND a.x < b.y "
               "ORDER BY a.k")
        assert "MergeJoin" in indexed.explain(sql) and "Filter" in indexed.explain(sql)
        self._check_equivalent(indexed.execute(sql).rows,
                               plain.execute(sql).rows)

    def test_mixed_type_keys_merge_correctly(self):
        indexed, plain = Database(), Database()
        rows = [(1, 1), (1.0, 2), ("x", 3), (None, 4), (2, 5)]
        for db in (indexed, plain):
            db.execute("CREATE TABLE a (k REAL, x INT)")
            db.execute("CREATE TABLE b (k REAL, y INT)")
            db.insert_rows("a", rows)
            db.insert_rows("b", rows)
        indexed.execute("CREATE INDEX iak ON a (k)")
        indexed.execute("CREATE INDEX ibk ON b (k)")
        sql = "SELECT a.k, a.x, b.y FROM a JOIN b ON a.k = b.k ORDER BY a.k"
        assert "MergeJoin" in indexed.explain(sql)
        self._check_equivalent(indexed.execute(sql).rows,
                               plain.execute(sql).rows)

    def test_large_build_side_steers_to_merge_without_order_by(self):
        db = Database()
        db.execute("CREATE TABLE a (k INT, x INT)")
        db.execute("CREATE TABLE b (k INT, y INT)")
        db.insert_rows("a", [(i % 400, i) for i in range(800)])
        db.insert_rows("b", [(i % 400, i) for i in range(800)])
        db.execute("CREATE INDEX iak ON a (k)")
        db.execute("CREATE INDEX ibk ON b (k)")
        plan = db.explain("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k")
        assert "MergeJoin" in plan
        n = db.execute("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k").scalar()
        assert n == 1600


# ---------------------------------------------------------------------------
# streaming aggregation
# ---------------------------------------------------------------------------


class TestStreamAggregate:
    @pytest.fixture
    def pair(self):
        indexed, plain = Database(), Database()
        rows = [(f"c{i % 8}", float(i)) for i in range(160)]
        rows.append((None, 5.0))  # NULL group key
        for db in (indexed, plain):
            db.execute("CREATE TABLE t (cat TEXT, val REAL)")
            db.insert_rows("t", rows)
        indexed.execute("CREATE INDEX icat ON t (cat)")
        return indexed, plain

    SQL = "SELECT cat, COUNT(*), SUM(val) FROM t GROUP BY cat ORDER BY cat"

    def test_ordered_input_streams_and_elides_sort(self, pair):
        indexed, plain = pair
        plan = indexed.explain(self.SQL)
        assert "StreamAggregate(keys=1)" in plan
        assert "HashAggregate" not in plan and "Sort" not in plan
        assert "IndexOrderScan(t.cat via icat)" in plan
        assert "HashAggregate" in plain.explain(self.SQL)

    def test_results_match_hash_twin(self, pair):
        indexed, plain = pair
        assert indexed.execute(self.SQL).rows == plain.execute(self.SQL).rows

    def test_having_and_distinct_aggregates(self, pair):
        indexed, plain = pair
        sql = ("SELECT cat, COUNT(DISTINCT val) FROM t GROUP BY cat "
               "HAVING COUNT(*) > 2 ORDER BY cat")
        assert "StreamAggregate" in indexed.explain(sql)
        assert "Having" in indexed.explain(sql)
        assert indexed.execute(sql).rows == plain.execute(sql).rows

    def test_streaming_holds_one_group_at_a_time(self):
        """LIMIT over a streamed GROUP BY never touches later groups: a
        poisoned row in the last group stays unevaluated, which is only
        possible if groups are emitted incrementally (a hash aggregate
        materializes everything and blows up)."""
        indexed, plain = Database(), Database()
        rows = [("a", 1.0), ("a", 2.0), ("b", 3.0), ("z", "boom")]
        for db in (indexed, plain):
            db.execute("CREATE TABLE t (cat TEXT, val REAL)")
            db.insert_rows("t", rows)
        indexed.execute("CREATE INDEX icat ON t (cat)")
        sql = "SELECT cat, SUM(val + 1) FROM t GROUP BY cat LIMIT 1"
        assert "StreamAggregate" in indexed.explain(sql)
        assert indexed.execute(sql).rows == [("a", 5.0)]
        with pytest.raises(ExecutionError):
            plain.execute(sql)  # hash aggregation consumes the poison row

    def test_filtered_group_lookup_keeps_hash_strategy(self, pair):
        """Ordering the input must not cost index filtering: an equality
        lookup keeps its index and hash-aggregates the group."""
        indexed, _ = pair
        indexed.execute("CREATE INDEX ival ON t (val)")
        plan = indexed.explain(
            "SELECT val, COUNT(*) FROM t WHERE val = 5 GROUP BY val"
        )
        assert "IndexEqScan" in plan or "IndexRangeScan" in plan


class TestFullWalkStreamRule:
    """A full index walk feeds a StreamAggregate only when streaming saves
    work the hash plan must do: group order elides the ORDER BY's sort,
    or a LIMIT sits directly on the aggregate.  Otherwise the hash
    aggregate over a batch scan is cheaper."""

    ROWS = [(f"c{i % 37}", float(i % 11)) for i in range(2000)] + [(None, 1.0)] * 3

    @pytest.fixture
    def pair(self):
        assert len(self.ROWS) >= VECTOR_MIN_ROWS
        indexed, plain = Database(), Database()
        for db in (indexed, plain):
            db.execute("CREATE TABLE t (cat TEXT, val REAL)")
            db.insert_rows("t", self.ROWS)
        indexed.execute("CREATE INDEX icat ON t (cat)")
        return indexed, plain

    def test_ranked_counts_hash_a_batch_scan(self, pair):
        indexed, _ = pair
        plan = indexed.explain(
            "SELECT cat, COUNT(*) FROM t GROUP BY cat ORDER BY 2 DESC")
        assert "HashAggregate(keys=1) [batch]" in plan
        assert "SeqScan(t) [batch]" in plan
        assert "StreamAggregate" not in plan and "IndexOrderScan" not in plan

    def test_unordered_unlimited_group_by_hashes(self, pair):
        indexed, _ = pair
        plan = indexed.explain("SELECT cat, COUNT(*) FROM t GROUP BY cat")
        assert "HashAggregate(keys=1) [batch]" in plan
        assert "IndexOrderScan" not in plan

    def test_elided_sort_and_limit_still_stream(self, pair):
        indexed, _ = pair
        for sql in ("SELECT cat, COUNT(*) FROM t GROUP BY cat ORDER BY cat",
                    "SELECT cat, COUNT(*) FROM t GROUP BY cat LIMIT 1"):
            plan = indexed.explain(sql)
            assert "StreamAggregate(keys=1)" in plan, sql
            assert "IndexOrderScan(t.cat via icat)" in plan, sql
            assert "Sort" not in plan and "HashAggregate" not in plan, sql

    def test_rows_match_unindexed_twin(self, pair):
        indexed, plain = pair
        for sql in (
            "SELECT cat, COUNT(*) FROM t GROUP BY cat ORDER BY 2 DESC",
            "SELECT cat, COUNT(*), SUM(val) FROM t GROUP BY cat ORDER BY cat",
        ):
            assert indexed.execute(sql).rows == plain.execute(sql).rows, sql
        sql = "SELECT cat, COUNT(*), SUM(val) FROM t GROUP BY cat"
        everything = plain.execute(sql).rows
        assert sorted(map(repr, indexed.execute(sql).rows)) == sorted(
            map(repr, everything))
        first = indexed.execute(sql + " LIMIT 1").rows
        assert len(first) == 1 and first[0] in everything


# ---------------------------------------------------------------------------
# range + order fusion
# ---------------------------------------------------------------------------


class TestRangeOrderFusion:
    @pytest.fixture
    def pair(self):
        indexed, plain = Database(), Database()
        rows = [(f"c{i % 4}", float((i * 37) % 211)) for i in range(300)]
        rows += [("c1", None), (None, 3.0), ("c1", "12k")]
        for db in (indexed, plain):
            db.execute("CREATE TABLE t (cat TEXT, val REAL)")
            db.insert_rows("t", rows)
        indexed.execute("CREATE INDEX icv ON t (cat, val)")
        return indexed, plain

    QUERIES = [
        ("SELECT val FROM t WHERE cat = ? AND val > ? ORDER BY val LIMIT 5",
         ("c1", 100.0)),
        ("SELECT val FROM t WHERE cat = ? AND val > ? ORDER BY val", ("c1", 100.0)),
        ("SELECT val FROM t WHERE cat = ? AND val >= ? AND val < ? ORDER BY val",
         ("c2", 50.0, 150.0)),
        ("SELECT val FROM t WHERE cat = ? AND val < ? ORDER BY val DESC LIMIT 4",
         ("c3", 120.0)),
        ("SELECT val FROM t WHERE cat = ? AND val BETWEEN ? AND ?", ("c0", 20, 90)),
    ]

    def test_walk_is_seeded_at_the_bound(self, pair):
        indexed, _ = pair
        plan = indexed.explain(
            "SELECT val FROM t WHERE cat = ? AND val > ? ORDER BY val LIMIT 5"
        )
        assert "eq_prefix=1" in plan and "range=?..+inf" in plan
        assert "Filter" not in plan  # no residual left to apply
        assert "TopK" not in plan and "Sort" not in plan

    def test_fused_answers_match_unindexed_twin(self, pair):
        indexed, plain = pair
        for sql, params in self.QUERIES:
            fast = indexed.execute(sql, params).rows
            slow = plain.execute(sql, params).rows
            assert fast == slow or sorted(map(repr, fast)) == sorted(map(repr, slow)), sql

    def test_null_bound_matches_nothing(self, pair):
        indexed, plain = pair
        for db in (indexed, plain):
            rows = db.execute(
                "SELECT val FROM t WHERE cat = ? AND val > ? ORDER BY val", ("c1", None)
            ).rows
            assert rows == []

    def test_leading_column_range_fuses_without_prefix(self):
        db = Database()
        db.execute("CREATE TABLE t (a REAL, b REAL)")
        db.insert_rows("t", [(float(i), float(i % 7)) for i in range(50)])
        db.execute("CREATE INDEX iab ON t (a, b)")
        plan = db.explain("SELECT a FROM t WHERE a > 40 ORDER BY a, b LIMIT 3")
        assert "eq_prefix=0" in plan and "range=?..+inf" in plan
        assert "Sort" not in plan and "TopK" not in plan
        assert db.execute(
            "SELECT a FROM t WHERE a > 40 ORDER BY a, b LIMIT 3"
        ).scalars() == [41.0, 42.0, 43.0]


# ---------------------------------------------------------------------------
# regressions guarded by the refactor
# ---------------------------------------------------------------------------


class TestRegressions:
    def test_limit_short_circuits_nested_loop_join(self):
        """A poisoned row past the LIMIT cut in the probe stream of a
        nested-loop (non-equi) join is never evaluated."""
        db = Database()
        db.execute("CREATE TABLE a (x REAL)")
        db.execute("CREATE TABLE b (y REAL)")
        db.insert_rows("a", [(1.0,), (2.0,), ("boom",)])
        db.insert_rows("b", [(0.0,), (10.0,)])
        # the poisoned probe row raises inside the join predicate itself
        sql = "SELECT a.x, b.y FROM a JOIN b ON a.x + 0 < b.y LIMIT 2"
        plan = db.explain(sql)
        assert "NestedLoopJoin" in plan
        rows = db.execute(sql).rows
        assert rows == [(1.0, 10.0), (2.0, 10.0)]
        with pytest.raises(ExecutionError):
            db.execute("SELECT a.x, b.y FROM a JOIN b ON a.x + 0 < b.y")

    def test_limit_short_circuits_cross_component_join(self):
        db = Database()
        db.execute("CREATE TABLE a (k INT, x REAL)")
        db.execute("CREATE TABLE b (k INT)")
        db.execute("CREATE TABLE c (z INT)")
        db.insert_rows("a", [(1, 1.0), (1, "boom")])
        db.insert_rows("b", [(1,)])
        db.insert_rows("c", [(7,), (8,)])
        sql = ("SELECT a.x + 0 FROM a JOIN b ON a.k = b.k "
               "JOIN c ON 1 = 1 LIMIT 2")
        assert db.execute(sql).rows == [(1.0,), (1.0,)]

    def test_null_range_bound_returns_no_rows(self):
        """WHERE col < NULL must match nothing through an index too."""
        indexed, plain = Database(), Database()
        for db in (indexed, plain):
            db.execute("CREATE TABLE t (v REAL)")
            db.insert_rows("t", [(float(i),) for i in range(10)])
        indexed.execute("CREATE INDEX iv ON t (v)")
        for sql in ("SELECT v FROM t WHERE v < ?", "SELECT v FROM t WHERE v > ?",
                    "SELECT v FROM t WHERE v BETWEEN ? AND 5"):
            params = (None,)
            assert indexed.execute(sql, params).rows == []
            assert plain.execute(sql, params).rows == []

    def test_reorder_toggle_is_respected(self):
        db = _three_table_db(n_big=300)
        db.reorder_joins = False
        plan = db.explain(THREE_TABLE_SQL)
        assert _indent_of(plan, "HashJoin(mid") > _indent_of(plan, "HashJoin(small")

    def test_merge_steering_never_elides_unrelated_order_by(self):
        """Steering the driver into join-key order must not drop the sort
        for an ORDER BY on a different (unindexed) column."""
        db = Database()
        db.execute("CREATE TABLE t1 (x INT, y INT)")
        db.execute("CREATE TABLE t2 (y INT, z INT)")
        db.insert_rows("t1", [((i * 7919) % 1000, i % 500) for i in range(1000)])
        db.insert_rows("t2", [(i % 500, i) for i in range(600)])
        db.execute("CREATE INDEX i1y ON t1 (y)")
        db.execute("CREATE INDEX i2y ON t2 (y)")
        sql = "SELECT t1.x FROM t1 JOIN t2 ON t1.y = t2.y ORDER BY t1.x"
        plan = db.explain(sql)
        assert "Sort" in plan
        rows = db.execute(sql).scalars()
        assert rows == sorted(rows)

    def test_duplicate_range_conjuncts_both_apply(self):
        """Two range conjuncts on one column: the scan consumes one, the
        other must survive as a residual filter (not be dropped)."""
        indexed, plain = Database(), Database()
        for db in (indexed, plain):
            db.execute("CREATE TABLE t (x INT)")
            db.insert_rows("t", [(i,) for i in range(20)])
        indexed.execute("CREATE INDEX ix ON t (x)")
        for sql, params in [
            ("SELECT x FROM t WHERE x > 10 AND x > 5 ORDER BY x", ()),
            ("SELECT x FROM t WHERE x > 5 AND x > 10 ORDER BY x", ()),
            ("SELECT x FROM t WHERE x < 4 AND x < 12 ORDER BY x", ()),
            ("SELECT x FROM t WHERE x > ? AND x BETWEEN ? AND ? ORDER BY x",
             (8, 3, 15)),
        ]:
            fast = indexed.execute(sql, params).scalars()
            slow = plain.execute(sql, params).scalars()
            assert fast == slow, sql

    def test_ambiguous_column_still_raises(self):
        db = Database()
        db.execute("CREATE TABLE a (v INT)")
        db.execute("CREATE TABLE b (v INT)")
        db.insert_rows("a", [(1,)])
        db.insert_rows("b", [(1,)])
        with pytest.raises(PlanningError):
            db.execute("SELECT a.v FROM a JOIN b ON a.v = b.v WHERE v = 1")
