"""The removed parallel executor stays removed.

Partitioned tables are gone too (an older file holding one is refused by
name; see ``test_minidb_durability``), so this check runs on a plain
table: the ``parallel`` knob is an unknown open option and an unknown
pragma, and no plan uses the parallel executor's nodes.
"""

import pytest

from repro.errors import DatabaseError
from repro.minidb import Database, connect


_REMOVED_NODES = ("ParallelScan", "PartialAggregate", "Gather", "FinalAggregate")


def _fill(db):
    db.execute("CREATE TABLE m (id INTEGER, cat TEXT, val REAL)")
    db.insert_rows("m", [(i, f"c{i % 7}", (i % 97) * 0.5) for i in range(1500)])
    return db


def test_parallel_mode_is_gone():
    """The parallel executor was taken out: its knob is an unknown option
    and an unknown pragma, and plans use only the ordinary nodes."""
    with pytest.raises(DatabaseError, match="unknown open option"):
        Database(parallel=4)
    with pytest.raises(DatabaseError, match="unknown open option"):
        connect(":memory:", parallel=4)
    db = _fill(Database())
    with pytest.raises(DatabaseError, match="unknown pragma"):
        db.pragma("parallel")
    for sql in ("SELECT cat, SUM(val) FROM m GROUP BY cat",
                "SELECT id, val FROM m ORDER BY val, id"):
        for mode in ("EXPLAIN", "EXPLAIN ANALYZE"):
            plan = "\n".join(r[0] for r in db.execute(f"{mode} {sql}").rows)
            assert not any(name in plan for name in _REMOVED_NODES), plan
