"""``repro.minidb`` — an embedded relational database engine.

This package is the reproduction's substitute for PostgreSQL, which an
offline, dependency-free reproduction cannot run: a SQL engine with a
tokenizer, recursive-descent parser, expression compiler, B+tree
indexes, an index-selecting planner, a volcano-style executor, transactions
with rollback, and a write-ahead log.  ``Database.prepare`` caches
statements by SQL text in a :class:`PlanCache`; each
:class:`PreparedStatement` holds its own compiled plan.

Buckaroo uses it through :class:`~repro.backends.sql_backend.SQLBackend`:
built-in detectors run as SQL, group membership is an index lookup, and the
zoom engine's viewport fetches are parameterized range queries.
"""

import os

from repro.minidb.btree import BTree, BTreeIndex
from repro.minidb.catalog import ColumnDef, IndexDef, TableSchema, affinity_of
from repro.minidb.database import Database
from repro.minidb.parser import parse, parse_expression
from repro.minidb.plan_cache import PlanCache
from repro.minidb.prepared import Cursor, PreparedStatement
from repro.minidb.results import ResultSet, StreamingResult
from repro.minidb.session import Connection
from repro.minidb.wal import WriteAheadLog


def connect(path: str | os.PathLike = ":memory:", **options) -> Database:
    """Open a minidb database — the one public entry point.

    ``connect()`` or ``connect(":memory:")`` gives a volatile in-memory
    database with no write-ahead log; ``connect("data.db")`` opens (or
    creates) a durable file-backed one whose committed data survives
    :meth:`Database.close` and process restarts (crash recovery replays
    the WAL tail).  Options — ``pool_pages``, ``fsync``,
    ``wal_autocheckpoint``, ``gc_interval``, ``vectorize`` — are
    forwarded to :class:`Database`; tune them later with
    :meth:`Database.pragma`.  Databases are context managers::

        with connect("data.db") as db:
            db.execute("CREATE TABLE t (x INT)")
    """
    return Database(path=path, **options)


__all__ = [
    "BTree",
    "BTreeIndex",
    "ColumnDef",
    "Connection",
    "Cursor",
    "Database",
    "IndexDef",
    "PlanCache",
    "PreparedStatement",
    "ResultSet",
    "StreamingResult",
    "TableSchema",
    "WriteAheadLog",
    "affinity_of",
    "connect",
    "parse",
    "parse_expression",
]
