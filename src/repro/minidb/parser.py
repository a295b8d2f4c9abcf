"""Recursive-descent SQL parser for minidb.

Grammar (informal)::

    statement   := select | insert | update | delete | create | drop
                 | alter | begin | commit | rollback | explain
    select      := SELECT [DISTINCT] items FROM table [WHERE expr]
                   [GROUP BY exprs] [HAVING expr] [ORDER BY keys]
                   [LIMIT n [OFFSET m]]
    expr        := or-expr with the usual precedence:
                   OR < AND < NOT < comparison < additive < multiplicative
                   < unary < primary
"""

from __future__ import annotations

from repro.errors import SQLSyntaxError
from repro.minidb import ast_nodes as ast
from repro.minidb.tokens import EOF, IDENT, NUMBER, OP, PARAM, STRING, Token, tokenize

_COMPARISON_OPS = ("=", "==", "!=", "<>", "<", "<=", ">", ">=")

_KEYWORDS_ENDING_EXPR = {
    "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET",
    "AND", "OR", "AS", "ASC", "DESC", "THEN", "ELSE", "END", "WHEN",
    "JOIN", "INNER", "LEFT", "ON", "SET", "VALUES", "BETWEEN", "IN",
    "IS", "NOT", "LIKE", "BY", "USING",
}


def parse(sql: str) -> ast.Statement:
    """Parse a single SQL statement (a trailing ``;`` is allowed)."""
    return _Parser(sql).parse_statement()


def parse_expression(sql: str) -> ast.Expr:
    """Parse a standalone expression (used by tests and detector helpers)."""
    parser = _Parser(sql)
    expr = parser._expr()
    parser._expect_eof()
    return expr


class _Parser:
    """Single-statement recursive-descent parser over a token list."""

    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.pos = 0
        self.param_count = 0

    # -- token helpers -----------------------------------------------------

    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _next(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def _at_keyword(self, *words: str) -> bool:
        token = self._peek()
        return token.kind == IDENT and token.upper() in words

    def _accept_keyword(self, *words: str) -> bool:
        if self._at_keyword(*words):
            self.pos += 1
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        token = self._next()
        if token.kind != IDENT or token.upper() != word:
            raise SQLSyntaxError(f"expected {word}, found {token.text!r}", token.position)

    def _at_op(self, *ops: str) -> bool:
        token = self._peek()
        return token.kind == OP and token.text in ops

    def _accept_op(self, *ops: str) -> bool:
        if self._at_op(*ops):
            self.pos += 1
            return True
        return False

    def _expect_op(self, op: str) -> None:
        token = self._next()
        if token.kind != OP or token.text != op:
            raise SQLSyntaxError(f"expected {op!r}, found {token.text!r}", token.position)

    def _identifier(self, what: str = "identifier") -> str:
        token = self._next()
        if token.kind != IDENT:
            raise SQLSyntaxError(f"expected {what}, found {token.text!r}", token.position)
        return token.text

    def _expect_eof(self) -> None:
        self._accept_op(";")
        token = self._peek()
        if token.kind != EOF:
            raise SQLSyntaxError(f"unexpected trailing input {token.text!r}", token.position)

    # -- statements ----------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        token = self._peek()
        if token.kind != IDENT:
            raise SQLSyntaxError(f"expected a statement, found {token.text!r}", token.position)
        keyword = token.upper()
        dispatch = {
            "SELECT": self._select,
            "INSERT": self._insert,
            "UPDATE": self._update,
            "DELETE": self._delete,
            "CREATE": self._create,
            "DROP": self._drop,
            "ALTER": self._alter,
            "BEGIN": self._begin,
            "COMMIT": self._commit,
            "ROLLBACK": self._rollback,
            "EXPLAIN": self._explain,
        }
        handler = dispatch.get(keyword)
        if handler is None:
            raise SQLSyntaxError(f"unsupported statement {token.text!r}", token.position)
        statement = handler()
        self._expect_eof()
        return statement

    def _explain(self) -> ast.ExplainStmt:
        self._expect_keyword("EXPLAIN")
        analyze = self._accept_keyword("ANALYZE")
        keyword = self._peek().upper()
        inner = {
            "SELECT": self._select,
            "UPDATE": self._update,
            "DELETE": self._delete,
        }.get(keyword)
        if inner is None:
            raise SQLSyntaxError("EXPLAIN supports SELECT/UPDATE/DELETE only")
        return ast.ExplainStmt(inner(), analyze=analyze)

    def _begin(self) -> ast.BeginStmt:
        self._expect_keyword("BEGIN")
        self._accept_keyword("TRANSACTION")
        return ast.BeginStmt()

    def _commit(self) -> ast.CommitStmt:
        self._expect_keyword("COMMIT")
        return ast.CommitStmt()

    def _rollback(self) -> ast.RollbackStmt:
        self._expect_keyword("ROLLBACK")
        return ast.RollbackStmt()

    def _select(self) -> ast.SelectStmt:
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT")
        self._accept_keyword("ALL")
        items = [self._select_item()]
        while self._accept_op(","):
            items.append(self._select_item())

        table = None
        if self._accept_keyword("FROM"):
            table = self._table_ref()
            if self._at_keyword("JOIN", "INNER", "LEFT"):
                raise SQLSyntaxError(
                    "a SELECT reads one table; JOIN is not supported",
                    self._peek().position,
                )

        where = self._expr() if self._accept_keyword("WHERE") else None

        group_by: list[ast.Expr] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._expr())
            while self._accept_op(","):
                group_by.append(self._expr())

        having = self._expr() if self._accept_keyword("HAVING") else None

        order_by: list[ast.OrderItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._order_item())
            while self._accept_op(","):
                order_by.append(self._order_item())

        limit = offset = None
        if self._accept_keyword("LIMIT"):
            limit = self._expr()
            if self._accept_keyword("OFFSET"):
                offset = self._expr()

        return ast.SelectStmt(
            items=tuple(items),
            table=table,
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _select_item(self) -> ast.SelectItem:
        if self._accept_op("*"):
            return ast.SelectItem(expr=None)
        # 'alias.*'
        token = self._peek()
        if (
            token.kind == IDENT
            and self.pos + 2 < len(self.tokens)
            and self.tokens[self.pos + 1].kind == OP
            and self.tokens[self.pos + 1].text == "."
            and self.tokens[self.pos + 2].kind == OP
            and self.tokens[self.pos + 2].text == "*"
        ):
            table = self._identifier()
            self._expect_op(".")
            self._expect_op("*")
            return ast.SelectItem(expr=None, star_table=table)
        expr = self._expr()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._identifier("alias")
        elif self._peek().kind == IDENT and self._peek().upper() not in _KEYWORDS_ENDING_EXPR:
            alias = self._identifier("alias")
        return ast.SelectItem(expr=expr, alias=alias)

    def _table_ref(self) -> ast.TableRef:
        name = self._identifier("table name")
        alias = None
        if self._accept_keyword("AS"):
            alias = self._identifier("alias")
        elif self._peek().kind == IDENT and self._peek().upper() not in _KEYWORDS_ENDING_EXPR:
            alias = self._identifier("alias")
        return ast.TableRef(name, alias)

    def _order_item(self) -> ast.OrderItem:
        expr = self._expr()
        ascending = True
        if self._accept_keyword("DESC"):
            ascending = False
        else:
            self._accept_keyword("ASC")
        return ast.OrderItem(expr, ascending)

    def _insert(self) -> ast.InsertStmt:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._identifier("table name")
        columns: list[str] = []
        if self._accept_op("("):
            columns.append(self._identifier("column name"))
            while self._accept_op(","):
                columns.append(self._identifier("column name"))
            self._expect_op(")")
        self._expect_keyword("VALUES")
        rows = [self._value_row()]
        while self._accept_op(","):
            rows.append(self._value_row())
        return ast.InsertStmt(table, tuple(columns), tuple(rows))

    def _value_row(self) -> tuple:
        self._expect_op("(")
        values = [self._expr()]
        while self._accept_op(","):
            values.append(self._expr())
        self._expect_op(")")
        return tuple(values)

    def _update(self) -> ast.UpdateStmt:
        self._expect_keyword("UPDATE")
        table = self._identifier("table name")
        self._expect_keyword("SET")
        assignments = [self._assignment()]
        while self._accept_op(","):
            assignments.append(self._assignment())
        where = self._expr() if self._accept_keyword("WHERE") else None
        return ast.UpdateStmt(table, tuple(assignments), where)

    def _assignment(self) -> tuple:
        column = self._identifier("column name")
        self._expect_op("=")
        return (column, self._expr())

    def _delete(self) -> ast.DeleteStmt:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._identifier("table name")
        where = self._expr() if self._accept_keyword("WHERE") else None
        return ast.DeleteStmt(table, where)

    def _create(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        unique = self._accept_keyword("UNIQUE")
        if self._accept_keyword("TABLE"):
            if unique:
                raise SQLSyntaxError("UNIQUE applies to indexes, not tables")
            if_not_exists = self._if_not_exists()
            name = self._identifier("table name")
            self._expect_op("(")
            columns = [self._column_def()]
            while self._accept_op(","):
                columns.append(self._column_def())
            self._expect_op(")")
            return ast.CreateTableStmt(name, tuple(columns), if_not_exists)
        if self._accept_keyword("INDEX"):
            if_not_exists = self._if_not_exists()
            name = self._identifier("index name")
            self._expect_keyword("ON")
            table = self._identifier("table name")
            self._expect_op("(")
            columns = [self._identifier("column name")]
            while self._accept_op(","):
                columns.append(self._identifier("column name"))
            self._expect_op(")")
            if self._accept_keyword("USING"):
                # every index is a B+tree; older WAL tails still say hash
                kind = self._identifier("index kind").lower()
                if kind not in ("btree", "hash"):
                    raise SQLSyntaxError(f"unknown index kind {kind!r}")
            return ast.CreateIndexStmt(name, table, tuple(columns), unique, if_not_exists)
        token = self._peek()
        raise SQLSyntaxError(f"expected TABLE or INDEX, found {token.text!r}", token.position)

    def _if_not_exists(self) -> bool:
        if self._accept_keyword("IF"):
            self._expect_keyword("NOT")
            self._expect_keyword("EXISTS")
            return True
        return False

    def _column_def(self) -> ast.ColumnDefAst:
        name = self._identifier("column name")
        type_parts = []
        while self._peek().kind == IDENT and self._peek().upper() not in ("PRIMARY",):
            type_parts.append(self._next().text)
        if self._accept_op("("):  # e.g. VARCHAR(20) — size is ignored
            while not self._accept_op(")"):
                self._next()
        if self._accept_keyword("PRIMARY"):
            self._expect_keyword("KEY")
        return ast.ColumnDefAst(name, " ".join(type_parts) or "none")

    def _drop(self) -> ast.Statement:
        self._expect_keyword("DROP")
        if self._accept_keyword("TABLE"):
            if_exists = self._if_exists()
            return ast.DropTableStmt(self._identifier("table name"), if_exists)
        if self._accept_keyword("INDEX"):
            if_exists = self._if_exists()
            return ast.DropIndexStmt(self._identifier("index name"), if_exists)
        token = self._peek()
        raise SQLSyntaxError(f"expected TABLE or INDEX, found {token.text!r}", token.position)

    def _if_exists(self) -> bool:
        if self._accept_keyword("IF"):
            self._expect_keyword("EXISTS")
            return True
        return False

    def _alter(self) -> ast.AlterAddColumnStmt:
        self._expect_keyword("ALTER")
        self._expect_keyword("TABLE")
        table = self._identifier("table name")
        self._expect_keyword("ADD")
        self._accept_keyword("COLUMN")
        return ast.AlterAddColumnStmt(table, self._column_def())

    # -- expressions -------------------------------------------------------

    def _expr(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        left = self._and_expr()
        while self._accept_keyword("OR"):
            left = ast.Binary("OR", left, self._and_expr())
        return left

    def _and_expr(self) -> ast.Expr:
        left = self._not_expr()
        while self._accept_keyword("AND"):
            left = ast.Binary("AND", left, self._not_expr())
        return left

    def _not_expr(self) -> ast.Expr:
        if self._accept_keyword("NOT"):
            return ast.Unary("NOT", self._not_expr())
        return self._comparison()

    def _comparison(self) -> ast.Expr:
        left = self._additive()
        negated = False
        if self._at_keyword("NOT"):
            following = self.tokens[self.pos + 1]
            if following.kind == IDENT and following.upper() in ("BETWEEN", "IN", "LIKE"):
                self._next()
                negated = True
        if self._accept_keyword("BETWEEN"):
            low = self._additive()
            self._expect_keyword("AND")
            high = self._additive()
            return ast.Between(left, low, high, negated)
        if self._accept_keyword("IN"):
            self._expect_op("(")
            items = [self._expr()]
            while self._accept_op(","):
                items.append(self._expr())
            self._expect_op(")")
            return ast.InList(left, tuple(items), negated)
        if self._accept_keyword("LIKE"):
            return ast.Like(left, self._additive(), negated)
        if negated:
            raise SQLSyntaxError("dangling NOT in expression")
        if self._accept_keyword("IS"):
            is_not = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            return ast.IsNull(left, is_not)
        for op in _COMPARISON_OPS:
            if self._at_op(op):
                self._next()
                normalized = {"==": "=", "!=": "<>"}.get(op, op)
                return ast.Binary(normalized, left, self._additive())
        return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while self._at_op("+", "-", "||"):
            op = self._next().text
            left = ast.Binary(op, left, self._multiplicative())
        return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while self._at_op("*", "/", "%"):
            op = self._next().text
            left = ast.Binary(op, left, self._unary())
        return left

    def _unary(self) -> ast.Expr:
        if self._at_op("-", "+"):
            op = self._next().text
            return ast.Unary(op, self._unary())
        return self._primary()

    def _primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind == NUMBER:
            self._next()
            text = token.text
            if "." in text or "e" in text.lower():
                return ast.Literal(float(text))
            return ast.Literal(int(text))
        if token.kind == STRING:
            self._next()
            return ast.Literal(token.text)
        if token.kind == PARAM:
            self._next()
            param = ast.Param(self.param_count)
            self.param_count += 1
            return param
        if token.kind == OP and token.text == "(":
            self._next()
            expr = self._expr()
            self._expect_op(")")
            return expr
        if token.kind == IDENT:
            upper = token.upper()
            if upper == "NULL":
                self._next()
                return ast.Literal(None)
            if upper == "TRUE":
                self._next()
                return ast.Literal(1)
            if upper == "FALSE":
                self._next()
                return ast.Literal(0)
            if upper == "CAST":
                return self._cast()
            if upper == "CASE":
                return self._case()
            return self._name_or_call()
        raise SQLSyntaxError(f"unexpected token {token.text!r}", token.position)

    def _cast(self) -> ast.Cast:
        self._expect_keyword("CAST")
        self._expect_op("(")
        expr = self._expr()
        self._expect_keyword("AS")
        type_parts = [self._identifier("type name")]
        while self._peek().kind == IDENT:
            type_parts.append(self._identifier())
        self._expect_op(")")
        return ast.Cast(expr, " ".join(type_parts))

    def _case(self) -> ast.Case:
        self._expect_keyword("CASE")
        operand = None
        if not self._at_keyword("WHEN"):
            operand = self._expr()
        whens = []
        while self._accept_keyword("WHEN"):
            condition = self._expr()
            self._expect_keyword("THEN")
            whens.append((condition, self._expr()))
        if not whens:
            raise SQLSyntaxError("CASE requires at least one WHEN clause")
        else_result = self._expr() if self._accept_keyword("ELSE") else None
        self._expect_keyword("END")
        return ast.Case(operand, tuple(whens), else_result)

    def _name_or_call(self) -> ast.Expr:
        name = self._identifier()
        if self._at_op("("):
            self._next()
            upper = name.upper()
            if self._accept_op("*"):
                self._expect_op(")")
                return ast.FuncCall(upper, (), is_star=True)
            if self._accept_op(")"):
                return ast.FuncCall(upper, ())
            distinct = self._accept_keyword("DISTINCT")
            args = [self._expr()]
            while self._accept_op(","):
                args.append(self._expr())
            self._expect_op(")")
            # scalar MIN/MAX with >= 2 args are MIN_OF/MAX_OF, like SQLite
            if upper in ("MIN", "MAX") and len(args) >= 2:
                upper = upper + "_OF"
            return ast.FuncCall(upper, tuple(args), distinct=distinct)
        if self._at_op("."):
            self._next()
            column = self._identifier("column name")
            return ast.ColumnRef(name, column)
        return ast.ColumnRef(None, name)
