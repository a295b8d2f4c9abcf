"""The index-vs-scan demotion under flat range and ``1/distinct``
equality estimates.

No estimate reads a comparand's value, so literal and parameterized
bounds get the same plan: ranges keep their index, and only equality on
a column with fewer than 2 distinct values demotes to a scan.  Tiny
tables never demote, and an index walk answers like an unindexed scan.
"""

from repro.minidb import Database
from repro.minidb.planner import DEMOTE_MIN_ROWS


def _db(n=2000):
    db = Database()
    db.execute("CREATE TABLE t (cat TEXT, val REAL)")
    db.insert_rows(
        "t", [(f"c{i % 10}", float(i % 1000)) for i in range(n)])
    db.execute("CREATE INDEX iv ON t (val)")
    db.analyze()
    return db


class TestPlannerDemotion:
    def test_selective_range_keeps_index(self):
        db = _db()
        plan = db.explain("SELECT rowid FROM t WHERE val < 20")
        assert "IndexRangeScan" in plan, plan

    def test_single_valued_equality_demotes_to_seq_scan(self):
        db = _db()
        db.execute("CREATE INDEX ic ON t (cat)")
        db.execute("UPDATE t SET cat = 'c0'")
        db.analyze()
        for sql, params in (("SELECT rowid FROM t WHERE cat = 'c0'", ()),
                            ("SELECT rowid FROM t WHERE cat = ?", ("c0",))):
            plan = db.explain(sql, params)
            assert "IndexEqScan" not in plan, plan
            assert "SeqScan" in plan and "Filter" in plan, plan
            assert len(db.execute(sql, params).rows) == 2000

    def test_broad_range_answers_match(self):
        db = _db()
        demoted = db.execute("SELECT rowid FROM t WHERE val > 10").rows
        db.pragma("vectorize", "off")
        plain = Database()
        plain.execute("CREATE TABLE t (cat TEXT, val REAL)")
        plain.insert_rows(
            "t", [(f"c{i % 10}", float(i % 1000)) for i in range(2000)])
        expected = plain.execute("SELECT rowid FROM t WHERE val > 10").rows
        assert sorted(demoted) == sorted(expected)

    def test_parameterized_bound_keeps_index(self):
        """Plans stay binding-independent: a ``?`` bound gets the flat
        default, and the index holds."""
        db = _db()
        plan = db.explain("SELECT rowid FROM t WHERE val > ?", (10.0,))
        assert "IndexRangeScan" in plan, plan

    def test_tiny_tables_never_demote(self):
        db = _db(n=DEMOTE_MIN_ROWS - 1)
        plan = db.explain("SELECT rowid FROM t WHERE val > 1")
        assert "IndexRangeScan" in plan, plan
        db.execute("CREATE INDEX ic ON t (cat)")
        db.execute("UPDATE t SET cat = 'c0'")
        db.analyze()
        plan = db.explain("SELECT rowid FROM t WHERE cat = 'c0'")
        assert "IndexEqScan" in plan, plan
