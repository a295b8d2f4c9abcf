"""The PEP 249-flavored execution surface: prepared statements and cursors.

``Database.prepare(sql)`` returns a :class:`PreparedStatement` — the
parsed AST plus a slot for the compiled physical plan.  That slot is the
only place minidb keeps a plan: the database's
:class:`~repro.minidb.plan_cache.PlanCache` caches statements by SQL text,
and each statement caches its own plan.  Parameter slots (``?``) live
inside the plan as compiled ``fn(row, params)`` closures, so the same
tree re-executes under any binding; the statement revalidates its plan
against :func:`~repro.minidb.plan_cache.validation_key` — the schema
epoch, the ``vectorize`` knob and the row-count bucket of each table
the plan reads — on every execution, and transparently re-plans after
DDL, ``analyze()``, or writes that move a table into another
power-of-two bucket.  ``Database.execute`` / ``stream`` /
``executemany`` / ``explain`` are thin wrappers over prepared statements,
so every caller shares one plan cache and one invalidation story.  An
``EXPLAIN <stmt>`` statement plans its inner statement in its own slot.

Prepared statements are **shared across connections** (one statement
cache per database): session state never lives on the statement.  Every
execution method takes an optional ``session`` — the caller's
transaction/snapshot context — defaulting to the database's default
session; :class:`~repro.minidb.session.Connection` passes its own.  The
private plan slot is a single atomically-swapped tuple, so concurrent
executions at worst re-plan redundantly, never execute a torn entry.

:class:`Cursor` is the DB-API-shaped veneer (``execute`` /
``description`` / ``fetchone`` / ``fetchmany`` / ``fetchall`` /
iteration) for code written against that idiom — open it from a
``Database`` (default session) or a ``Connection`` (its session).
"""

from __future__ import annotations

from repro.errors import DatabaseError, PlanningError, SQLSyntaxError
from repro.minidb import ast_nodes as ast
from repro.minidb import executor
from repro.minidb.plan_cache import validation_key
from repro.minidb.planner import plan_select
from repro.minidb.results import ResultSet, StreamingResult
from repro.minidb.storage import CELL_TYPES, scalar

_DML_TYPES = (ast.InsertStmt, ast.UpdateStmt, ast.DeleteStmt)
_EXPLAINABLE = (ast.SelectStmt, ast.UpdateStmt, ast.DeleteStmt)


class PreparedStatement:
    """One parsed statement bound to a database, with a cached plan.

    The plan slot is filled lazily on first execution and revalidated
    against its key on each subsequent one, so holding a prepared
    statement across DDL or table growth is always safe — it re-plans
    instead of executing a stale tree.
    """

    __slots__ = ("db", "sql", "statement", "n_params", "_planned", "_slot")

    def __init__(self, db, sql: str, statement: ast.Statement):
        self.db = db
        self.sql = sql
        self.statement = statement
        self.n_params = ast.n_params(statement)
        # the statement the slot holds a plan for: EXPLAIN plans its inner one
        self._planned = (statement.statement
                         if isinstance(statement, ast.ExplainStmt) else statement)
        # (payload, tables costed, validation_key) — swapped atomically
        self._slot: tuple | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PreparedStatement({self.sql!r})"

    @property
    def is_select(self) -> bool:
        return isinstance(self.statement, ast.SelectStmt)

    def _bind(self, params, evaluated: bool = True) -> tuple:
        """``params`` as a tuple of cell-domain values: a numpy scalar is
        converted, a list or dict refused (IntegrityError), as at
        storage."""
        bound = tuple(params)
        if evaluated and len(bound) < self.n_params:
            raise DatabaseError(
                f"statement expects {self.n_params} parameter(s), "
                f"got {len(bound)}: {self.sql!r}"
            )
        if not CELL_TYPES.issuperset(map(type, bound)):
            bound = tuple(map(scalar, bound))
        return bound

    def _plan(self) -> tuple:
        """``(payload, hit)``: the slot's plan, re-planned when its
        validation key is stale.  Every call counts in
        ``db.plan_cache.info()`` — a replay as a hit, a plan built as a
        miss."""
        db = self.db
        slot = self._slot
        if slot is not None and slot[2] == validation_key(db, slot[1]):
            db.plan_cache.count(hit=True)
            return slot[0], True
        statement = self._planned
        if isinstance(statement, ast.SelectStmt):
            payload = plan_select(db, statement)
            tables = payload.tables
        else:
            payload = executor.compile_dml(db, statement)
            tables = ()  # rule-based access path: no size-dependent choice
        self._slot = (payload, tables, validation_key(db, tables))
        db.plan_cache.count(hit=False, stale=slot is not None)
        return payload, False

    def execute(self, params: tuple | list = (), session=None) -> ResultSet:
        """Run the statement under one parameter binding.

        ``session`` carries the caller's transaction/snapshot context
        (a connection's session); None means the default session.
        """
        statement = self.statement
        # EXPLAIN checks its binding in _explain: only ANALYZE evaluates it
        bound = self._bind(params,
                           evaluated=not isinstance(statement, ast.ExplainStmt))
        if isinstance(statement, ast.SelectStmt):
            if statement.table is None:
                return executor._select_without_table(statement, bound)
            plan, _hit = self._plan()  # plan BEFORE acquiring the snapshot:
            # a planning error must not leak a registered snapshot (which
            # would pin the GC horizon forever)
            snapshot, release = executor._read_context(
                self.db, session, stream=False
            )
            return executor.run_select_plan(
                plan, bound, snapshot=snapshot, release=release
            )
        if isinstance(statement, _DML_TYPES):
            compiled, _hit = self._plan()
            return executor.run_dml(self.db, compiled, bound, session)
        if isinstance(statement, ast.ExplainStmt):
            return self._explain(bound, statement.analyze, session)
        # DDL and transaction control
        return self.db._dispatch(statement, self.sql, session)

    def stream(self, params: tuple | list = (), session=None) -> StreamingResult:
        """Run a SELECT lazily, returning a streaming cursor.

        The cursor holds a snapshot taken now and reads it to
        completion: DML interleaved while it is open — by this session
        or any other — does not change what it yields.
        """
        statement = self.statement
        if not isinstance(statement, ast.SelectStmt):
            raise DatabaseError("stream() supports SELECT statements only")
        bound = self._bind(params)
        if statement.table is None:
            result = executor._select_without_table(statement, bound)
            return StreamingResult(result.columns, iter(result.rows))
        plan, _hit = self._plan()  # before the snapshot — see execute()
        snapshot, release = executor._read_context(self.db, session, stream=True)
        return executor.run_select_plan(
            plan, bound, stream=True, snapshot=snapshot, release=release
        )

    def executemany(self, param_rows, session=None) -> int:
        """Run once per binding; parse and plan are paid exactly once.

        Returns the total rowcount.
        """
        total = 0
        for params in param_rows:
            result = self.execute(params, session=session)
            total += max(result.rowcount, 0)
        return total

    def explain(self, params: tuple | list = (), analyze: bool = False,
                session=None) -> str:
        """The plan as newline-joined text (first line: ``cache: hit``
        when this statement's slot was valid, else ``cache: miss``)."""
        result = self._explain(tuple(params), analyze, session)
        return "\n".join(row[0] for row in result.rows)

    def _explain(self, params: tuple, analyze: bool, session) -> ResultSet:
        statement = self._planned
        if not isinstance(statement, _EXPLAINABLE):
            raise SQLSyntaxError("EXPLAIN supports SELECT/UPDATE/DELETE only")
        if analyze:
            params = self._bind(params)
            if not isinstance(statement, ast.SelectStmt):
                raise PlanningError(
                    "EXPLAIN ANALYZE supports SELECT statements only"
                )
        if isinstance(statement, ast.SelectStmt) and statement.table is None:
            plan, hit = None, False  # constant selects have no plan to cache
        else:
            plan, hit = self._plan()
        return executor.explain(self.db, statement, plan, hit, params,
                                analyze=analyze, session=session)


class Cursor:
    """A PEP 249-shaped cursor over a :class:`Database` or ``Connection``.

    Results are materialized on ``execute`` (minidb results are small or
    explicitly streamed via ``Database.stream``); ``description`` carries
    the standard 7-tuples with the column name populated.  Statements run
    in the owner's session — cursors from the same connection share its
    transaction state.
    """

    arraysize = 1

    def __init__(self, owner):
        self.connection = owner
        self._session = getattr(owner, "_session", None)
        self.description: list[tuple] | None = None
        self.rowcount = -1
        self.lastrowid: int | None = None
        self._rows: list[tuple] = []
        self._pos = 0
        self._closed = False

    # -- statement execution -------------------------------------------------

    def execute(self, sql, params: tuple | list = ()) -> "Cursor":
        """Run one statement (SQL text or a :class:`PreparedStatement`)."""
        prepared = self._prepared(sql)
        self._load(prepared.execute(params, session=self._session))
        return self

    def executemany(self, sql, param_rows) -> "Cursor":
        prepared = self._prepared(sql)
        total = prepared.executemany(param_rows, session=self._session)
        self.description = None
        self.rowcount = total
        self.lastrowid = None
        self._rows = []
        self._pos = 0
        return self

    def _prepared(self, sql) -> PreparedStatement:
        self._check_open()
        if not isinstance(sql, str):
            # already a statement object — a PreparedStatement, or a
            # network client's RemoteStatement (same execute surface)
            return sql
        return self.connection.prepare(sql)

    def _load(self, result: ResultSet) -> None:
        self._rows = result.rows
        self._pos = 0
        self.rowcount = result.rowcount
        self.lastrowid = result.lastrowid
        self.description = (
            [(name, None, None, None, None, None, None)
             for name in result.columns]
            if result.columns else None
        )

    # -- fetching --------------------------------------------------------------

    def fetchone(self) -> tuple | None:
        self._check_open()
        if self._pos >= len(self._rows):
            return None
        row = self._rows[self._pos]
        self._pos += 1
        return row

    def fetchmany(self, size: int | None = None) -> list[tuple]:
        self._check_open()
        count = self.arraysize if size is None else size
        chunk = self._rows[self._pos:self._pos + max(0, count)]
        self._pos += len(chunk)
        return chunk

    def fetchall(self) -> list[tuple]:
        self._check_open()
        chunk = self._rows[self._pos:]
        self._pos = len(self._rows)
        return chunk

    def __iter__(self):
        return self

    def __next__(self) -> tuple:
        row = self.fetchone()
        if row is None:
            raise StopIteration
        return row

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        self._rows = []
        self.description = None

    def _check_open(self) -> None:
        if self._closed:
            raise DatabaseError("cursor is closed")

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
