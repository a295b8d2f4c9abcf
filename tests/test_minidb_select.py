"""Integration tests for SELECT execution against the dirty fixture."""

import pytest

from repro.errors import PlanningError
from repro.minidb import Database


class TestProjection:
    def test_star(self, dirty_db):
        result = dirty_db.execute("SELECT * FROM salary")
        assert result.columns == ["country", "degree", "income", "age"]
        assert len(result) == 9

    def test_expressions_and_aliases(self, dirty_db):
        result = dirty_db.execute("SELECT age * 2 AS dbl FROM salary WHERE age = 34")
        assert result.columns == ["dbl"]
        assert result.scalar() == 68

    def test_rowid_pseudocolumn(self, dirty_db):
        rows = dirty_db.execute("SELECT rowid FROM salary ORDER BY rowid").scalars()
        assert rows == list(range(1, 10))

    def test_select_without_from(self):
        assert Database().execute("SELECT 1 + 2").scalar() == 3

    def test_output_names_for_functions(self, dirty_db):
        result = dirty_db.execute("SELECT COUNT(*), AVG(age) FROM salary")
        assert result.columns[0] == "count(*)"
        assert result.columns[1] == "avg(age)"


class TestFiltering:
    def test_equality_on_indexed_column(self, dirty_db):
        rows = dirty_db.execute(
            "SELECT degree FROM salary WHERE country = ?", ("Nauru",)
        ).scalars()
        assert rows == ["BS"]

    def test_three_valued_logic_null_filtered(self, dirty_db):
        # income = NULL row must not match either branch
        n_low = dirty_db.execute(
            "SELECT COUNT(*) FROM salary WHERE income < 60000").scalar()
        n_high = dirty_db.execute(
            "SELECT COUNT(*) FROM salary WHERE income >= 60000").scalar()
        n_null = dirty_db.execute(
            "SELECT COUNT(*) FROM salary WHERE income IS NULL").scalar()
        n_text = dirty_db.execute(
            "SELECT COUNT(*) FROM salary WHERE typeof(income) = 'text'").scalar()
        # text sorts above numbers, so income >= 60000 includes '12k'
        assert n_null == 1
        assert n_text == 1
        assert n_low + n_high + n_null == 9

    def test_in_list(self, dirty_db):
        n = dirty_db.execute(
            "SELECT COUNT(*) FROM salary WHERE country IN ('Bhutan', 'Nauru')"
        ).scalar()
        assert n == 5

    def test_between(self, dirty_db):
        rows = dirty_db.execute(
            "SELECT age FROM salary WHERE age BETWEEN 30 AND 36 ORDER BY age"
        ).scalars()
        assert rows == [31, 34, 35]

    def test_like(self, dirty_db):
        n = dirty_db.execute(
            "SELECT COUNT(*) FROM salary WHERE country LIKE '%o'").scalar()
        assert n == 4  # Lesotho x4

    def test_not(self, dirty_db):
        n = dirty_db.execute(
            "SELECT COUNT(*) FROM salary WHERE NOT country = 'Bhutan'").scalar()
        assert n == 5

    def test_typeof_guard_for_numeric_comparison(self, dirty_db):
        """The outlier-detector pattern: numeric filter excluding text."""
        rows = dirty_db.execute(
            "SELECT rowid FROM salary WHERE income > ? "
            "AND typeof(income) <> 'text'", (100000,)
        ).scalars()
        assert rows == [4]


class TestAggregation:
    def test_global_aggregates(self, dirty_db):
        row = dirty_db.execute(
            "SELECT COUNT(*), COUNT(income), MIN(age), MAX(age) FROM salary"
        ).first()
        assert row == (9, 8, 27, 52)

    def test_group_by_counts(self, dirty_db):
        result = dirty_db.execute(
            "SELECT country, COUNT(*) FROM salary GROUP BY country ORDER BY country"
        )
        assert result.rows == [("Bhutan", 4), ("Lesotho", 4), ("Nauru", 1)]

    def test_avg_skips_null_and_text(self, dirty_db):
        avg = dirty_db.execute(
            "SELECT AVG(income) FROM salary WHERE country = 'Lesotho'").scalar()
        assert avg == pytest.approx((72000 + 48000 + 55000) / 3)

    def test_having(self, dirty_db):
        rows = dirty_db.execute(
            "SELECT country FROM salary GROUP BY country HAVING COUNT(*) >= 4 "
            "ORDER BY country"
        ).scalars()
        assert rows == ["Bhutan", "Lesotho"]

    def test_having_with_alias(self, dirty_db):
        rows = dirty_db.execute(
            "SELECT country, COUNT(*) AS n FROM salary GROUP BY country "
            "HAVING n = 1"
        ).rows
        assert rows == [("Nauru", 1)]

    def test_count_distinct(self, dirty_db):
        assert dirty_db.execute(
            "SELECT COUNT(DISTINCT degree) FROM salary").scalar() == 3

    def test_group_by_positional_order(self, dirty_db):
        rows = dirty_db.execute(
            "SELECT country, COUNT(*) FROM salary GROUP BY country "
            "ORDER BY 2 DESC, 1"
        ).rows
        assert rows == [("Bhutan", 4), ("Lesotho", 4), ("Nauru", 1)]

    def test_group_by_positional_order_out_of_range(self, dirty_db):
        with pytest.raises(PlanningError, match="position 9"):
            dirty_db.execute(
                "SELECT country, COUNT(*) FROM salary GROUP BY country "
                "ORDER BY 9"
            )

    def test_median_and_stddev(self, dirty_db):
        median = dirty_db.execute("SELECT MEDIAN(age) FROM salary").scalar()
        assert median == 35
        stddev = dirty_db.execute("SELECT STDDEV(age) FROM salary").scalar()
        assert stddev == pytest.approx(7.480, abs=0.01)

    def test_aggregate_on_empty_input(self, dirty_db):
        row = dirty_db.execute(
            "SELECT COUNT(*), SUM(age), AVG(age) FROM salary WHERE country = 'Atlantis'"
        ).first()
        assert row == (0, None, None)

    def test_group_by_missing_key_forms_group(self):
        db = Database()
        db.execute("CREATE TABLE t (k TEXT, v INT)")
        db.executemany("INSERT INTO t VALUES (?, ?)", [("a", 1), (None, 2), (None, 3)])
        result = db.execute("SELECT k, COUNT(*) FROM t GROUP BY k")
        assert (None, 2) in result.rows

    def test_bare_column_outside_group_by_rejected(self, dirty_db):
        with pytest.raises(PlanningError, match="GROUP BY"):
            dirty_db.execute("SELECT age, COUNT(*) FROM salary GROUP BY country")


class TestOrderingAndLimits:
    def test_order_by_desc(self, dirty_db):
        ages = dirty_db.execute(
            "SELECT age FROM salary ORDER BY age DESC LIMIT 3").scalars()
        assert ages == [52, 44, 41]

    def test_order_by_multiple_keys(self, dirty_db):
        rows = dirty_db.execute(
            "SELECT country, degree FROM salary ORDER BY country, degree LIMIT 3"
        ).rows
        assert rows == [("Bhutan", "BS"), ("Bhutan", "BS"), ("Bhutan", "MS")]

    def test_order_by_position(self, dirty_db):
        ages = dirty_db.execute(
            "SELECT age FROM salary ORDER BY 1 LIMIT 2").scalars()
        assert ages == [27, 29]

    def test_order_by_alias_in_aggregate(self, dirty_db):
        rows = dirty_db.execute(
            "SELECT country, COUNT(*) AS n FROM salary GROUP BY country "
            "ORDER BY n DESC, country"
        ).rows
        assert rows[0][0] == "Bhutan"
        assert rows[-1] == ("Nauru", 1)

    def test_order_by_column_not_in_projection(self, dirty_db):
        degrees = dirty_db.execute(
            "SELECT degree FROM salary WHERE country='Lesotho' ORDER BY age"
        ).scalars()
        assert degrees == ["BS", "PhD", "MS", "BS"]

    def test_limit_offset(self, dirty_db):
        rows = dirty_db.execute(
            "SELECT rowid FROM salary ORDER BY rowid LIMIT 3 OFFSET 2").scalars()
        assert rows == [3, 4, 5]

    def test_distinct(self, dirty_db):
        degrees = dirty_db.execute(
            "SELECT DISTINCT degree FROM salary ORDER BY 1").scalars()
        assert degrees == ["BS", "MS", "PhD"]

    def test_nulls_order_last_like_postgres_default(self):
        db = Database()
        db.execute("CREATE TABLE t (v INT)")
        db.executemany("INSERT INTO t VALUES (?)", [(3,), (None,), (1,)])
        values = db.execute("SELECT v FROM t ORDER BY v").scalars()
        assert values == [None, 1, 3]  # NULL sorts first (smallest sort key)


class TestJoins:
    @pytest.fixture
    def db(self, dirty_db):
        dirty_db.execute("CREATE TABLE errors (ref INT, code TEXT)")
        dirty_db.executemany(
            "INSERT INTO errors VALUES (?, ?)",
            [(3, "type_mismatch"), (4, "outlier"), (6, "missing_value")],
        )
        return dirty_db

    def test_inner_join(self, db):
        rows = db.execute(
            "SELECT s.country, e.code FROM salary s JOIN errors e "
            "ON s.rowid = e.ref ORDER BY e.ref"
        ).rows
        assert rows == [
            ("Bhutan", "type_mismatch"),
            ("Bhutan", "outlier"),
            ("Lesotho", "missing_value"),
        ]

    def test_left_join_pads_with_null(self, db):
        n_unmatched = db.execute(
            "SELECT COUNT(*) FROM salary s LEFT JOIN errors e "
            "ON s.rowid = e.ref WHERE e.code IS NULL"
        ).scalar()
        assert n_unmatched == 6

    def test_join_with_aggregation(self, db):
        rows = db.execute(
            "SELECT s.country, COUNT(*) FROM salary s JOIN errors e "
            "ON s.rowid = e.ref GROUP BY s.country ORDER BY s.country"
        ).rows
        assert rows == [("Bhutan", 2), ("Lesotho", 1)]

    def test_non_equi_join_falls_back_to_nested_loop(self, db):
        n = db.execute(
            "SELECT COUNT(*) FROM salary s JOIN errors e ON s.rowid < e.ref"
        ).scalar()
        assert n == 2 + 3 + 5  # rowids below 3, 4, 6


class TestExplain:
    def test_index_eq_plan(self, dirty_db):
        plan = dirty_db.explain("SELECT * FROM salary WHERE country = 'Bhutan'")
        assert "IndexEqScan" in plan and "idx_salary_country" in plan

    def test_range_plan(self, dirty_db):
        plan = dirty_db.explain("SELECT * FROM salary WHERE income > 100")
        assert "IndexRangeScan" in plan

    def test_seq_scan_without_index(self, dirty_db):
        plan = dirty_db.explain("SELECT * FROM salary WHERE age = 34")
        assert "SeqScan" in plan

    def test_aggregate_and_sort_steps(self, dirty_db):
        plan = dirty_db.explain(
            "SELECT age, COUNT(*) FROM salary GROUP BY age ORDER BY 1 LIMIT 2"
        )
        assert "HashAggregate" in plan and "Sort" in plan and "Limit" in plan
