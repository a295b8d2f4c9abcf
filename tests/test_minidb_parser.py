"""Unit tests for the SQL parser."""

import pytest

from repro.errors import SQLSyntaxError
from repro.minidb import ast_nodes as ast
from repro.minidb.parser import parse, parse_expression


class TestSelect:
    def test_minimal(self):
        stmt = parse("SELECT a FROM t")
        assert isinstance(stmt, ast.SelectStmt)
        assert stmt.table.name == "t"
        assert stmt.items[0].expr == ast.ColumnRef(None, "a")

    def test_star(self):
        stmt = parse("SELECT * FROM t")
        assert stmt.items[0].is_star

    def test_qualified_star(self):
        stmt = parse("SELECT t.* FROM t")
        assert stmt.items[0].star_table == "t"

    def test_alias_with_and_without_as(self):
        stmt = parse("SELECT a AS x, b y FROM t")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"

    def test_case_insensitive_keywords(self):
        stmt = parse("select a from t where a > 1 order by a desc limit 5")
        assert stmt.limit == ast.Literal(5)
        assert not stmt.order_by[0].ascending

    def test_where_params(self):
        stmt = parse("SELECT a FROM t WHERE a = ? AND b = ?")
        params = [n for n in ast.walk(stmt.where) if isinstance(n, ast.Param)]
        assert [p.index for p in params] == [0, 1]

    def test_group_by_having(self):
        stmt = parse("SELECT c, COUNT(*) FROM t GROUP BY c HAVING COUNT(*) > 2")
        assert len(stmt.group_by) == 1
        assert stmt.having is not None

    def test_joins(self):
        stmt = parse("SELECT * FROM a JOIN b ON a.x = b.y LEFT JOIN c ON a.x = c.z")
        assert [j.kind for j in stmt.joins] == ["INNER", "LEFT"]
        assert stmt.joins[0].table.name == "b"

    def test_limit_offset(self):
        stmt = parse("SELECT a FROM t LIMIT 10 OFFSET 5")
        assert stmt.limit == ast.Literal(10)
        assert stmt.offset == ast.Literal(5)

    def test_distinct(self):
        assert parse("SELECT DISTINCT a FROM t").distinct

    def test_no_from(self):
        stmt = parse("SELECT 1 + 1")
        assert stmt.table is None


class TestExpressions:
    def test_precedence_arithmetic(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr == ast.Binary("+", ast.Literal(1),
                                  ast.Binary("*", ast.Literal(2), ast.Literal(3)))

    def test_precedence_logic(self):
        expr = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert isinstance(expr, ast.Binary) and expr.op == "OR"

    def test_parentheses(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"

    def test_between(self):
        expr = parse_expression("x BETWEEN 1 AND 10")
        assert isinstance(expr, ast.Between) and not expr.negated

    def test_not_between(self):
        assert parse_expression("x NOT BETWEEN 1 AND 10").negated

    def test_in_list(self):
        expr = parse_expression("x IN (1, 2, 3)")
        assert isinstance(expr, ast.InList) and len(expr.items) == 3

    def test_is_null(self):
        assert parse_expression("x IS NULL") == ast.IsNull(ast.ColumnRef(None, "x"))
        assert parse_expression("x IS NOT NULL").negated

    def test_like(self):
        expr = parse_expression("name LIKE 'bhu%'")
        assert isinstance(expr, ast.Like)

    def test_not_equal_normalized(self):
        assert parse_expression("a != 1").op == "<>"
        assert parse_expression("a == 1").op == "="

    def test_unary_minus(self):
        assert parse_expression("-x") == ast.Unary("-", ast.ColumnRef(None, "x"))

    def test_function_call(self):
        expr = parse_expression("COALESCE(a, 0)")
        assert expr == ast.FuncCall("COALESCE", (ast.ColumnRef(None, "a"), ast.Literal(0)))

    def test_count_star(self):
        assert parse_expression("COUNT(*)").is_star

    def test_count_distinct(self):
        assert parse_expression("COUNT(DISTINCT a)").distinct

    def test_scalar_min_renamed(self):
        assert parse_expression("MIN(a, b)").name == "MIN_OF"
        assert parse_expression("MIN(a)").name == "MIN"

    def test_cast(self):
        expr = parse_expression("CAST(a AS REAL)")
        assert isinstance(expr, ast.Cast) and expr.type_name == "REAL"

    def test_case_searched(self):
        expr = parse_expression("CASE WHEN a > 1 THEN 'x' ELSE 'y' END")
        assert isinstance(expr, ast.Case) and expr.operand is None

    def test_case_with_operand(self):
        expr = parse_expression("CASE a WHEN 1 THEN 'x' END")
        assert expr.operand == ast.ColumnRef(None, "a")

    def test_null_true_false_literals(self):
        assert parse_expression("NULL") == ast.Literal(None)
        assert parse_expression("TRUE") == ast.Literal(1)
        assert parse_expression("FALSE") == ast.Literal(0)

    def test_string_concat(self):
        assert parse_expression("a || 'x'").op == "||"

    def test_qualified_column(self):
        assert parse_expression("t.a") == ast.ColumnRef("t", "a")


class TestOtherStatements:
    def test_insert(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert stmt.columns == ("a", "b")
        assert len(stmt.rows) == 2

    def test_insert_without_columns(self):
        assert parse("INSERT INTO t VALUES (1)").columns == ()

    def test_update(self):
        stmt = parse("UPDATE t SET a = 1, b = b + 1 WHERE c = 2")
        assert len(stmt.assignments) == 2
        assert stmt.where is not None

    def test_delete(self):
        stmt = parse("DELETE FROM t WHERE a IS NULL")
        assert stmt.table == "t"

    def test_create_table(self):
        stmt = parse("CREATE TABLE t (a INT, b VARCHAR(20), c DOUBLE PRECISION)")
        assert [c.name for c in stmt.columns] == ["a", "b", "c"]
        assert stmt.columns[2].type_name == "DOUBLE PRECISION"

    def test_create_table_if_not_exists(self):
        assert parse("CREATE TABLE IF NOT EXISTS t (a INT)").if_not_exists

    def test_create_index(self):
        stmt = parse("CREATE INDEX i ON t (a)")
        assert stmt.kind == "btree" and not stmt.unique

    def test_create_unique_hash_index(self):
        stmt = parse("CREATE UNIQUE INDEX i ON t (a) USING hash")
        assert stmt.kind == "hash" and stmt.unique

    def test_drop(self):
        assert parse("DROP TABLE IF EXISTS t").if_exists
        assert parse("DROP INDEX i").name == "i"

    def test_alter(self):
        stmt = parse("ALTER TABLE t ADD COLUMN z REAL")
        assert stmt.column.name == "z"

    def test_transaction_statements(self):
        assert isinstance(parse("BEGIN"), ast.BeginStmt)
        assert isinstance(parse("BEGIN TRANSACTION"), ast.BeginStmt)
        assert isinstance(parse("COMMIT"), ast.CommitStmt)
        assert isinstance(parse("ROLLBACK"), ast.RollbackStmt)

    def test_explain(self):
        stmt = parse("EXPLAIN SELECT a FROM t")
        assert isinstance(stmt, ast.ExplainStmt)

    def test_trailing_semicolon_ok(self):
        parse("SELECT 1;")


class TestSyntaxErrors:
    @pytest.mark.parametrize("sql", [
        "SELECT",
        "SELECT a FROM",
        "INSERT t VALUES (1)",
        "UPDATE t a = 1",
        "SELECT a FROM t WHERE",
        "CREATE t (a INT)",
        "SELECT a FROM t garbage garbage",
        "CASE WHEN 1 THEN 2",
        "FOO BAR",
    ])
    def test_rejects(self, sql):
        with pytest.raises(SQLSyntaxError):
            parse(sql)

    def test_dangling_not(self):
        with pytest.raises(SQLSyntaxError):
            parse_expression("a NOT 5")

    @pytest.mark.parametrize("clause", [
        "PARTITION BY HASH (id) PARTITIONS 4",
        "PARTITION BY RANGE (id) SPLIT AT (30, 90)",
    ])
    def test_partition_clause_rejected(self, clause):
        with pytest.raises(SQLSyntaxError):
            parse(f"CREATE TABLE m (id INTEGER, val REAL) {clause}")
