"""Shared fixtures: a small dirty dataset in both frame and database form.

The data mirrors the paper's motivating example (Figure 1): income values
grouped by country and degree, contaminated with an outlier, a missing
value, a type mismatch ("12k") and an undersized group.
"""

from __future__ import annotations

import pytest

from repro.frame import DataFrame
from repro.minidb import Database, connect

DIRTY_ROWS = [
    # (country, degree, income, age)
    ("Bhutan", "BS", 50000.0, 34),
    ("Bhutan", "MS", 61000.0, 29),
    ("Bhutan", "BS", "12k", 41),       # type mismatch
    ("Bhutan", "PhD", 1000000.0, 38),  # outlier
    ("Lesotho", "PhD", 72000.0, 35),
    ("Lesotho", "BS", None, 52),       # missing
    ("Lesotho", "MS", 48000.0, 44),
    ("Lesotho", "BS", 55000.0, 31),
    ("Nauru", "BS", 51000.0, 27),      # 'Nauru' is an undersized group
]

DIRTY_COLUMNS = ["country", "degree", "income", "age"]


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: paper-scale check; pytest.ini deselects it, run with -m slow",
    )


@pytest.fixture
def dirty_frame() -> DataFrame:
    """The motivating-example dataset as a DataFrame."""
    return DataFrame.from_rows(DIRTY_ROWS, DIRTY_COLUMNS)


def wal_path(path):
    """The ``<path>-wal`` sidecar of the database file at ``path``."""
    return path.with_name(path.name + "-wal")


def crash(db):
    """Drop the process handles without checkpoint or close — everything
    not already fsynced by a commit barrier is lost, like a power cut."""
    if db.pager is not None:
        db.pager._fh.close()
    if db.wal is not None and db.wal._handle is not None:
        db.wal._handle.close()
    db._closed = True


@pytest.fixture
def logged_db(tmp_path):
    """A file-backed database whose WAL keeps every record: automatic
    checkpoints are off, so ``db.wal.records`` is the whole history."""
    db = connect(tmp_path / "t.db", wal_autocheckpoint=0)
    yield db
    db.close()


@pytest.fixture
def dirty_db() -> Database:
    """The motivating-example dataset loaded into minidb, with indexes."""
    db = Database()
    db.execute(
        "CREATE TABLE salary (country TEXT, degree TEXT, income REAL, age INT)"
    )
    db.executemany("INSERT INTO salary VALUES (?, ?, ?, ?)", DIRTY_ROWS)
    db.execute("CREATE INDEX idx_salary_country ON salary(country) USING hash")
    db.execute("CREATE INDEX idx_salary_degree ON salary(degree) USING hash")
    db.execute("CREATE INDEX idx_salary_income ON salary(income)")
    return db
