"""A5 — ablation: write-cache flush interval (§3.2).

"To balance performance and persistence, Buckaroo periodically flushes
these changes to the Postgres database—by default, after every three
updates, which can be configured by the user."  This benchmark sweeps the
interval and reports workload time, flush count, and the worst-case number
of unpersisted operations (the durability window).

Sessions run on a file-backed SQL backend in a temporary directory with
automatic checkpoints off, so every flush is a durable checkpoint and
"Records flushed" counts the WAL records those checkpoints retire (an
in-memory database keeps no WAL: its flushes retire nothing).
"""

import pytest

from repro.bench import REMOVAL, print_generic, run_workload
from repro.config import BuckarooConfig

from benchmarks.conftest import make_session

N_OPS = 24
INTERVALS = (1, 3, 10, 24)

_ROWS: list = []


@pytest.mark.parametrize("interval", INTERVALS)
def test_flush_interval_sweep(benchmark, tmp_path, interval):
    def setup():
        config = BuckarooConfig(flush_interval=interval)
        session = make_session("stackoverflow", "sql", config,
                               path=str(tmp_path / "flush.db"),
                               wal_autocheckpoint=0)
        return (session,), {}

    def workload(session):
        run_workload(session, REMOVAL, n_ops=N_OPS, seed=21)
        return session

    session = benchmark.pedantic(workload, setup=setup, rounds=1, iterations=1)
    session.backend.db.close()
    cache = session.write_cache
    assert cache.total_updates == N_OPS
    expected_flushes = N_OPS // interval
    assert cache.total_flushes == expected_flushes
    assert cache.records_flushed > 0
    _ROWS.append([
        interval,
        f"{benchmark.stats.stats.mean:.3f} s",
        cache.total_flushes,
        cache.records_flushed,
        cache.pending,  # ops at risk if the process died now
    ])
    if len(_ROWS) == len(INTERVALS):
        print_generic(
            f"A5 — flush interval sweep ({N_OPS} removals, paper default = 3)",
            ["Interval", "Workload time", "Flushes", "Records flushed",
             "Unpersisted ops"],
            _ROWS,
        )
