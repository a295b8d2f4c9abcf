"""Unit tests for expression compilation and SQL value semantics."""

import pytest

from repro.errors import ExecutionError, PlanningError
from repro.minidb.expressions import (
    Resolver,
    compile_expr,
    sql_compare,
    sql_equal,
    truthy,
)
from repro.minidb.functions import sort_key
from repro.minidb.parser import parse_expression


def evaluate(sql: str, row=(), columns=(), params=()):
    """Compile a SQL expression over named columns and evaluate it."""
    mapping = {name: i for i, name in enumerate(columns)}
    resolver = Resolver("t", mapping)
    fn = compile_expr(parse_expression(sql), resolver)
    return fn(row, params)


class TestValueSemantics:
    def test_equal_null_propagates(self):
        assert sql_equal(None, 1) is None
        assert sql_equal(None, None) is None

    def test_equal_across_storage_classes_is_false(self):
        assert sql_equal(1, "1") is False

    def test_numeric_equality_int_float(self):
        assert sql_equal(1, 1.0) is True

    def test_compare_numbers_before_text(self):
        assert sql_compare(5, "a") == -1
        assert sql_compare("a", 5) == 1

    def test_compare_null(self):
        assert sql_compare(None, 5) is None

    def test_sort_key_total_order(self):
        values = ["b", 3, None, 1.5, "a"]
        ordered = sorted(values, key=sort_key)
        assert ordered == [None, 1.5, 3, "a", "b"]

    def test_truthy(self):
        assert not truthy(None)
        assert not truthy(0)
        assert truthy(1)
        assert truthy("x")
        assert not truthy("")


class TestArithmetic:
    def test_basic(self):
        assert evaluate("1 + 2 * 3") == 7

    def test_null_propagation(self):
        assert evaluate("1 + NULL") is None

    def test_division_by_zero_is_null(self):
        assert evaluate("1 / 0") is None
        assert evaluate("1 % 0") is None

    def test_arithmetic_on_text_raises(self):
        with pytest.raises(ExecutionError):
            evaluate("'a' + 1")

    def test_unary_minus(self):
        assert evaluate("-(2 + 3)") == -5

    def test_negate_text_raises(self):
        with pytest.raises(ExecutionError):
            evaluate("-'x'")

    def test_concat(self):
        assert evaluate("'a' || 'b' || 1") == "ab1"
        assert evaluate("'a' || NULL") is None


class TestLogic:
    def test_kleene_and(self):
        assert evaluate("NULL AND 0") == 0       # false wins
        assert evaluate("NULL AND 1") is None
        assert evaluate("1 AND 1") == 1

    def test_kleene_or(self):
        assert evaluate("NULL OR 1") == 1        # true wins
        assert evaluate("NULL OR 0") is None
        assert evaluate("0 OR 0") == 0

    def test_not_null(self):
        assert evaluate("NOT NULL") is None

    def test_comparisons_with_null(self):
        assert evaluate("1 < NULL") is None

    def test_between(self):
        assert evaluate("5 BETWEEN 1 AND 10") == 1
        assert evaluate("5 NOT BETWEEN 1 AND 10") == 0
        assert evaluate("5 BETWEEN NULL AND 10") is None

    def test_in_list_null_semantics(self):
        assert evaluate("1 IN (1, 2)") == 1
        assert evaluate("3 IN (1, 2)") == 0
        assert evaluate("3 IN (1, NULL)") is None  # unknown
        assert evaluate("NULL IN (1)") is None

    def test_is_null(self):
        assert evaluate("NULL IS NULL") is True
        assert evaluate("1 IS NOT NULL") is True

    def test_like_case_insensitive(self):
        assert evaluate("'Bhutan' LIKE 'bhu%'") == 1
        assert evaluate("'Bhutan' LIKE '_hutan'") == 1
        assert evaluate("'Bhutan' NOT LIKE 'x%'") == 1
        assert evaluate("NULL LIKE 'x'") is None

    def test_like_escapes_regex_metachars(self):
        assert evaluate("'a.c' LIKE 'a.c'") == 1
        assert evaluate("'abc' LIKE 'a.c'") == 0


class TestColumnsAndParams:
    def test_column_resolution(self):
        assert evaluate("a + b", row=(2, 3), columns=("a", "b")) == 5

    def test_qualified_column(self):
        assert evaluate("t.a", row=(7,), columns=("a",)) == 7

    def test_unknown_column(self):
        with pytest.raises(PlanningError, match="unknown column"):
            evaluate("nope", columns=("a",))

    def test_other_binding_is_unknown(self):
        with pytest.raises(PlanningError, match="unknown column u.a"):
            evaluate("u.a", row=(1,), columns=("a",))

    def test_empty_resolver_compiles_constants_only(self):
        assert compile_expr(parse_expression("? + 1"), Resolver())((), (2,)) == 3
        with pytest.raises(PlanningError, match="unknown column"):
            compile_expr(parse_expression("a"), Resolver())

    def test_params(self):
        assert evaluate("? + ?", params=(1, 2)) == 3


class TestFunctionsAndCase:
    def test_scalar_functions(self):
        assert evaluate("ABS(-3)") == 3
        assert evaluate("UPPER('ab')") == "AB"
        assert evaluate("COALESCE(NULL, NULL, 5)") == 5
        assert evaluate("LENGTH('abc')") == 3
        assert evaluate("ROUND(2.567, 2)") == 2.57
        assert evaluate("SUBSTR('hello', 2, 3)") == "ell"
        assert evaluate("REPLACE('aaa', 'a', 'b')") == "bbb"
        assert evaluate("NULLIF(1, 1)") is None
        assert evaluate("TYPEOF('x')") == "text"
        assert evaluate("TYPEOF(1.5)") == "real"
        assert evaluate("TYPEOF(NULL)") == "null"
        assert evaluate("MIN(3, 1, 2)") == 1

    def test_unknown_function(self):
        with pytest.raises(ExecutionError, match="unknown function"):
            evaluate("FROBNICATE(1)")

    def test_cast(self):
        assert evaluate("CAST('12' AS INT)") == 12
        assert evaluate("CAST(1.9 AS INTEGER)") == 1
        assert evaluate("CAST(5 AS TEXT)") == "5"
        assert evaluate("CAST('x' AS REAL)") == 0.0
        assert evaluate("CAST(NULL AS INT)") is None

    def test_case_searched(self):
        sql = "CASE WHEN a > 10 THEN 'big' WHEN a > 5 THEN 'mid' ELSE 'small' END"
        assert evaluate(sql, row=(20,), columns=("a",)) == "big"
        assert evaluate(sql, row=(7,), columns=("a",)) == "mid"
        assert evaluate(sql, row=(1,), columns=("a",)) == "small"

    def test_case_no_else_is_null(self):
        assert evaluate("CASE WHEN 0 THEN 1 END") is None

    def test_case_with_operand(self):
        sql = "CASE a WHEN 1 THEN 'one' WHEN 2 THEN 'two' END"
        assert evaluate(sql, row=(2,), columns=("a",)) == "two"

    def test_aggregate_outside_grouping_rejected(self):
        with pytest.raises(PlanningError, match="aggregation context"):
            evaluate("SUM(a)", columns=("a",))
