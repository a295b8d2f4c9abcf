"""The cost-based plan IR: EXPLAIN tree shapes, streaming aggregation,
range+order fusion, and the regressions fixed alongside the refactor
(NULL range bounds, duplicate range conjuncts)."""

import pytest

from repro.errors import DatabaseError, ExecutionError, PlanningError
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


# ---------------------------------------------------------------------------
# one table per SELECT: the join-order knob is gone with the joins
# ---------------------------------------------------------------------------


class TestJoinKnobRemoved:
    def test_reorder_joins_is_an_unknown_open_option(self):
        with pytest.raises(DatabaseError,
                           match=r"unknown open option\(s\): reorder_joins"):
            Database(reorder_joins=True)

    def test_reorder_joins_is_an_unknown_pragma(self):
        db = Database()
        with pytest.raises(DatabaseError, match="unknown pragma"):
            db.pragma("reorder_joins")
        with pytest.raises(DatabaseError, match="unknown pragma"):
            db.pragma("reorder_joins", False)
