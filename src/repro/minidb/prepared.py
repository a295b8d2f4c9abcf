"""The PEP 249-flavored execution surface: prepared statements and cursors.

``Database.prepare(sql)`` returns a :class:`PreparedStatement` — the
parsed AST plus a slot for the compiled physical plan.  Parameter slots
(``?``) live inside the plan as compiled ``fn(row, params)`` closures, so
the same tree re-executes under any binding; the statement revalidates
its plan against the database's ``(schema_epoch, stats_version)`` pair on
every execution and transparently re-plans after DDL, ``analyze()``, or a
mutation-driven statistics rebuild.  ``Database.execute`` / ``stream`` /
``executemany`` are thin wrappers over prepared statements, so every
caller shares one plan cache and one invalidation story.

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

from repro.errors import DatabaseError
from repro.minidb import ast_nodes as ast
from repro.minidb import executor
from repro.minidb.plan_cache import select_plan, validation_key
from repro.minidb.results import ResultSet, StreamingResult

_DML_TYPES = (ast.InsertStmt, ast.UpdateStmt, ast.DeleteStmt)


class PreparedStatement:
    """One parsed statement bound to a database, with a cached plan.

    The plan slot is filled lazily on first execution and revalidated by
    epoch pair on each subsequent one, so holding a prepared statement
    across DDL or statistics churn is always safe — it re-plans instead
    of executing a stale tree.
    """

    __slots__ = ("db", "sql", "statement", "n_params", "_slot", "_check_stats")

    def __init__(self, db, sql: str, statement: ast.Statement):
        self.db = db
        self.sql = sql
        self.statement = statement
        self.n_params = ast.n_params(statement)
        # (payload, tables, validation_key) — swapped atomically
        self._slot: tuple | None = None
        # SELECT plans are costed from statistics; DML scans are not
        self._check_stats = isinstance(statement, ast.SelectStmt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PreparedStatement({self.sql!r})"

    @property
    def is_select(self) -> bool:
        return isinstance(self.statement, ast.SelectStmt)

    def _bind(self, params) -> tuple:
        bound = tuple(params)
        statement = self.statement
        if isinstance(statement, ast.ExplainStmt) and not statement.analyze:
            return bound  # plan-only EXPLAIN never evaluates the slots
        if len(bound) < self.n_params:
            raise DatabaseError(
                f"statement expects {self.n_params} parameter(s), "
                f"got {len(bound)}: {self.sql!r}"
            )
        return bound

    def _plan(self):
        """The cached payload, re-planned when its epoch key is stale.

        Honors ``db.plan_cache.enabled``: with the cache switched off the
        statement re-plans on every execution (the benchmark baseline)
        instead of replaying its private slot.  A replay counts as a
        plan-cache hit, so ``plan_cache.info()`` covers prepared reuse.
        """
        cache = self.db.plan_cache
        caching = cache.enabled
        if caching:
            slot = self._slot
            if slot is not None and slot[2] == validation_key(
                self.db, slot[1], self._check_stats
            ):
                cache.record_hit()
                return slot[0]
        statement = self.statement
        if isinstance(statement, ast.SelectStmt):
            payload, _hit = select_plan(self.db, statement)
            tables = payload.tables
        else:
            payload, _hit = executor.cached_dml(self.db, statement)
            tables = (payload.table_name,)
        if caching:
            self._slot = (
                payload, tables,
                validation_key(self.db, tables, self._check_stats),
            )
        return payload

    def execute(self, params: tuple | list = (), session=None) -> ResultSet:
        """Run the statement under one parameter binding.

        ``session`` carries the caller's transaction/snapshot context
        (a connection's session); None means the default session.
        """
        bound = self._bind(params)
        statement = self.statement
        if isinstance(statement, ast.SelectStmt) and statement.table is not None:
            plan = self._plan()  # plan BEFORE acquiring the snapshot: a
            # planning error must not leak a registered snapshot (which
            # would pin the GC horizon forever)
            snapshot, release = executor._read_context(
                self.db, session, stream=False
            )
            return executor.run_select_plan(
                plan, bound, snapshot=snapshot, release=release
            )
        if isinstance(statement, _DML_TYPES):
            return executor.run_dml(self.db, self._plan(), bound, session)
        # DDL, transactions, EXPLAIN, constant SELECTs: dispatch directly
        return self.db._dispatch(statement, bound, self.sql, session)

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
            return executor.execute_select(self.db, statement, bound,
                                           stream=True, session=session)
        plan = self._plan()  # before the snapshot — see execute()
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
        """The plan as newline-joined text (first line: cache hit/miss)."""
        result = executor.explain(
            self.db, self.statement, tuple(params), analyze=analyze,
            session=session,
        )
        return "\n".join(row[0] for row in result.rows)


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
